"""The ray-by-ray exponent-cone condition against the pair loop it replaced.

``translation._cone_margin`` decides whether every exponent + shift sum lies
in the open negative cone, and finds the least margin over the sums, from one
tuple of ray pairings: on each ray, the largest exponent pairing plus the
largest shift pairing.  The reference below is the pair loop it replaced: one
Fraction sum e + s per pair, each located on its own (``cone_position``'s rule
written out, so that a fault in the shared rule cannot hide in the reference:
every ray's margin -p/|X| built, the least kept).
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    RankMismatch,
    SignedSqrt,
    Weight,
    admissible_exponents,
    antidominant_restriction,
    build_default_catalog,
    catalog_form,
    entry_involution,
    entry_root_system,
    orbit_restrictions,
    restricted_roots,
)
from cartan_ds.exponents import _ray_pairings
from cartan_ds.translation import _cone_margin


def reference_position(chamber, v):
    """(interior, margin) of v, one SignedSqrt per facet ray."""
    pairings = _ray_pairings(chamber, v)
    margin = min(
        (SignedSqrt.of_ratio(-p, n) for p, n in zip(pairings, chamber.ray_norms)),
        default=SignedSqrt.zero(),
    )
    return chamber.fulldim and all(p < 0 for p in pairings), margin


def reference_cone_margin(chamber, exponents, shifts):
    """Whether all exponent+shift sums are cone-interior, and their least margin."""
    passed = True
    least = None
    for e in exponents:
        for s in shifts:
            interior, margin = reference_position(chamber, e + s)
            if least is None or margin < least:
                least = margin
            passed = passed and interior
    return passed, least


@functools.lru_cache(maxsize=None)
def form(form_id):
    entry = catalog_form(form_id)
    rs = entry_root_system(entry)
    inv = entry_involution(entry, rs=rs)
    return rs, inv, restricted_roots(rs, inv)


SPLIT_FORMS = [
    e.id
    for e in build_default_catalog()
    if e.rank <= 4 and form(e.id)[1].split_rank > 0
]


# The pair loop makes one position per pair, about 0.1 ms each.  A larger grid
# cell takes a seeded sample of the exponents: split(F4)'s 373 admissible
# exponents against its 1152 restrictions of the rho orbit would take 45 s.
MAX_PAIRS = 20_000


@pytest.mark.parametrize("form_id", SPLIT_FORMS)
def test_catalog_exponents_and_shifts_match_the_pair_loop(form_id):
    rs, inv, rrs = form(form_id)
    exponent_sets = [
        [antidominant_restriction(rs, inv, rs.rho)],
        sorted(admissible_exponents(rs, inv, rrs, rs.rho), key=lambda w: w.coords),
    ]
    shift_sets = [
        sorted(orbit_restrictions(rs, inv, mu), key=lambda w: w.coords)
        for mu in (rs.rho, *rs.fundamental_weights)
    ] + [[Weight.zero(rs.rank)]]
    verdicts = set()
    for exponents in exponent_sets:
        for shifts in shift_sets:
            cell = exponents
            if len(cell) * len(shifts) > MAX_PAIRS:
                cell = random.Random(form_id).sample(cell, MAX_PAIRS // len(shifts))
            got = _cone_margin(rrs, cell, shifts)
            assert got == reference_cone_margin(rrs, cell, shifts), (form_id, shifts)
            verdicts.add(got[0])
    # the grid reaches both verdicts on every form with a split part
    assert verdicts == {True, False}, form_id


HYPOTHESIS_FORMS = ["su(2,1)", "so(4,3)", "split(B3)", "compact(A2)"]

# small rationals, 0 among them, so that sums land on cone walls
COEFFICIENTS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


def vectors(rs, rrs):
    """Weights anywhere in the weight space, and combinations of the simple
    restricted roots (whose coefficients are the ray pairings)."""
    anywhere = st.lists(COEFFICIENTS, min_size=rs.rank, max_size=rs.rank).map(Weight.of)
    simple = rrs.simple_restricted
    if not simple:
        return anywhere

    def combination(coefficients):
        v = Weight.zero(rs.rank)
        for c, s in zip(coefficients, simple):
            v = v + s.scale(c)
        return v

    in_span = st.lists(COEFFICIENTS, min_size=len(simple), max_size=len(simple)).map(combination)
    return st.one_of(in_span, anywhere)


@pytest.mark.parametrize("form_id", HYPOTHESIS_FORMS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_sets_match_the_pair_loop(form_id, data):
    rs, _, rrs = form(form_id)
    vector_sets = st.lists(vectors(rs, rrs), min_size=0, max_size=4)
    exponents = data.draw(vector_sets, label="exponents")
    shifts = data.draw(vector_sets, label="shifts")
    assert _cone_margin(rrs, exponents, shifts) == reference_cone_margin(
        rrs, exponents, shifts
    )


def test_a_sum_on_a_wall_is_not_interior():
    rs, _, rrs = form("so(4,3)")
    exponent = -rrs.rho_restricted
    wall = [rrs.rho_restricted - rrs.simple_restricted[0]]
    passed, margin = _cone_margin(rrs, [exponent], wall)
    assert not passed and margin == SignedSqrt.zero()
    assert reference_cone_margin(rrs, [exponent], wall) == (passed, margin)


def test_a_compact_cartan_has_no_interior():
    rs, _, rrs = form("compact(A2)")
    assert not rrs.fulldim and not rrs.ray_norms
    assert _cone_margin(rrs, [-rs.rho], [Weight.zero(rs.rank)]) == (False, SignedSqrt.zero())


def test_an_empty_set_passes_with_no_margin():
    rs, inv, rrs = form("su(2,1)")
    e = antidominant_restriction(rs, inv, rs.rho)
    assert _cone_margin(rrs, [], [e]) == (True, None)
    assert _cone_margin(rrs, [e], []) == (True, None)


@pytest.mark.parametrize("side", ["exponents", "shifts"])
def test_a_wrong_rank_vector_is_a_rank_mismatch(side):
    rs, inv, rrs = form("su(2,1)")
    good = [antidominant_restriction(rs, inv, rs.rho)]
    bad = [Weight.of([-1, -1, -1])]
    args = (bad, good) if side == "exponents" else (good, bad)
    with pytest.raises(RankMismatch):
        _cone_margin(rrs, *args)
