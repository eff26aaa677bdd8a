"""Exact square-root margins, the dual cone, cone positions and admissible sets."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    CartanDSError,
    FormalDSDatum,
    RankMismatch,
    SignedSqrt,
    Weight,
    admissible_exponents,
    antidominant_restriction,
    apply,
    build_default_catalog,
    cone_position,
    default_catalog_ids,
    dominant_representative,
    dual_chamber,
    longest_element,
    orbit_plus,
    restricted_roots,
    sorted_exponents,
    weyl_orbit,
)
from cartan_ds.exponents import BOUNDARY_OR_OUTSIDE, NEG_INTERIOR
from forms import PM_W_TYPES, form, pm_w_involutions
from weight_reference import ray_pairings, restricted_weights

F = Fraction


# ---------------------------------------------------------------------------
# SignedSqrt
# ---------------------------------------------------------------------------


def ratio(numerator, denominator_square):
    """numerator / sqrt(denominator_square) as a SignedSqrt."""
    if numerator == 0:
        return SignedSqrt.zero()
    return SignedSqrt(1 if numerator > 0 else -1, numerator * numerator / denominator_square)


def test_signed_sqrt_invariants():
    z = SignedSqrt.zero()
    assert z.sign == 0 and z.square == 0
    with pytest.raises(ValueError):
        SignedSqrt(sign=1, square=F(0))
    with pytest.raises(ValueError):
        SignedSqrt(sign=0, square=F(2))
    with pytest.raises(ValueError):
        SignedSqrt(1, F(-1))


def test_signed_sqrt_equality_and_normalisation():
    # 2 / sqrt(2) equals sqrt(2)
    assert ratio(F(2), F(2)) == SignedSqrt(1, F(2))
    assert ratio(F(-1), F(2)) == SignedSqrt(1, F(1, 2)).scale(F(-1))


def test_signed_sqrt_scaling():
    s = ratio(F(-1), F(2))  # -1/sqrt(2)
    assert s.scale(F(-3)) == SignedSqrt(1, F(9, 2))
    assert s.scale(F(0)) == SignedSqrt.zero()
    assert s.scale(F(2)).square == F(2) and s.scale(F(2)).sign == -1


def test_signed_sqrt_total_order():
    values = [
        SignedSqrt(1, F(2)),
        SignedSqrt.zero(),
        ratio(F(-1), F(2)),
        SignedSqrt(1, F(1, 2)),
        ratio(F(-2), F(1)),
    ]
    got = sorted(values)
    want = [
        ratio(F(-2), F(1)),  # -2
        ratio(F(-1), F(2)),  # -1/sqrt(2)
        SignedSqrt.zero(),
        SignedSqrt(1, F(1, 2)),
        SignedSqrt(1, F(2)),
    ]
    assert got == want


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(deadline=None, derandomize=True)
@given(a=rationals, b=st.fractions(min_value=0, max_value=9, max_denominator=12))
def test_signed_sqrt_order_matches_squaring_oracle(a, b):
    """sign-aware comparison of a and sqrt(b) agrees with comparing a*|a| to b."""
    x = ratio(a, F(2)) if a else SignedSqrt.zero()
    y = SignedSqrt(1, b) if b else SignedSqrt.zero()
    lhs = a * abs(a) / 2  # signed square of a/sqrt(2)
    assert (x < y) == (lhs < b)
    assert (x == y) == (lhs == b)


signed_sqrts = st.builds(
    lambda sign, square: SignedSqrt(sign, square) if sign else SignedSqrt.zero(),
    st.sampled_from((-1, 0, 1)),
    st.fractions(min_value=0, max_value=9, max_denominator=12).filter(bool),
)


@settings(deadline=None, derandomize=True)
@given(x=signed_sqrts, y=signed_sqrts)
def test_signed_sqrt_order_matches_float_order(x, y):
    # the order of the signed squares is the order of the values
    if float(x) != float(y):
        assert (x < y) == (float(x) < float(y))
    # neither is less exactly when the fields agree
    assert (not x < y and not y < x) == ((x.sign, x.square) == (y.sign, y.square))


@settings(deadline=None, derandomize=True)
@given(t=rationals, num=rationals)
def test_signed_sqrt_scale_is_linear(t, num):
    s = ratio(num, F(3)) if num else SignedSqrt.zero()
    scaled = s.scale(t)
    assert scaled.square == s.square * t * t
    if t > 0:
        assert scaled.sign == s.sign
    elif t < 0:
        assert scaled.sign == -s.sign
    else:
        assert scaled == SignedSqrt.zero()


# ---------------------------------------------------------------------------
# dual chamber geometry
# ---------------------------------------------------------------------------


def test_rank_one_chamber_and_margin():
    rs, inv, rrs = form("su(2,1)")
    ch = dual_chamber(rrs)
    assert ch.fulldim
    assert [r.coords for r in restricted_weights(ch).facet_rays] == [(F(1), F(1))]
    pos = cone_position(ch, -rs.rho)
    assert pos.kind == NEG_INTERIOR
    assert pos.margin == SignedSqrt(1, F(2))
    assert ray_pairings(ch, -rs.rho) == (F(-2),)
    assert cone_position(ch, rs.rho).kind == BOUNDARY_OR_OUTSIDE


def test_split_rank_two_margins():
    rs, inv, rrs = form("sl(3,R)")
    ch = dual_chamber(rrs)
    assert {r.coords for r in restricted_weights(ch).facet_rays} == {
        (F(1, 3), F(2, 3)),
        (F(2, 3), F(1, 3)),
    }
    assert cone_position(ch, -rs.rho).margin == SignedSqrt(1, F(3, 2))
    assert cone_position(ch, -rs.rho).kind == NEG_INTERIOR
    # a negated simple root sits on a wall of the cone
    wall = cone_position(ch, Weight.of([-1, 0]))
    assert wall.kind == BOUNDARY_OR_OUTSIDE and wall.margin == SignedSqrt.zero()
    # the dominant weight itself is strictly outside: negative margin
    outside = cone_position(ch, rs.rho)
    assert outside.kind == BOUNDARY_OR_OUTSIDE
    assert outside.margin == SignedSqrt(1, F(3, 2)).scale(F(-1))


def test_compact_form_has_degenerate_chamber():
    rs, inv, rrs = form("compact(A2)")
    ch = dual_chamber(rrs)
    assert not ch.fulldim
    views = restricted_weights(ch)
    assert views.facet_rays == () and views.positive_restricted == frozenset()
    pos = cone_position(ch, Weight.zero(2))
    assert pos.kind == BOUNDARY_OR_OUTSIDE and pos.margin == SignedSqrt.zero()


@settings(deadline=None, derandomize=True)
@given(
    t=st.fractions(min_value="1/7", max_value=5, max_denominator=9),
    c1=st.integers(min_value=-3, max_value=3),
    c2=st.integers(min_value=-3, max_value=3),
)
def test_margin_scales_linearly_along_rays(t, c1, c2):
    rs, inv, rrs = form("sl(3,R)")
    ch = dual_chamber(rrs)
    v = Weight.of([F(c1), F(c2)])
    assert cone_position(ch, v.scale(t)).margin == cone_position(ch, v).margin.scale(t)


@pytest.mark.parametrize("xi", [Weight.zero(5), Weight.of([1, 1, 7]), Weight.of([1])])
def test_cone_position_rejects_a_weight_of_the_wrong_rank(xi):
    # a covector zipped with a longer or shorter vector must not truncate
    rs, inv, rrs = form("sl(3,R)")
    with pytest.raises(RankMismatch):
        cone_position(rrs, xi)


def test_sorted_exponents_accepts_datum_and_iterable():
    rs, inv, rrs = form("su(2,1)")
    exps = frozenset({-rs.rho, inv.restrict(Weight.of([-1, 0]))})
    datum = FormalDSDatum(weight=rs.rho, exponents=exps, label="x")
    direct = sorted_exponents(exps)
    assert sorted_exponents(datum) == direct
    assert [w.coords for w in direct] == [(F(-1), F(-1)), (F(-1, 2), F(-1, 2))]


# ---------------------------------------------------------------------------
# orbit restrictions
# ---------------------------------------------------------------------------


def test_orbit_plus_selects_negative_cone_elements():
    rs, inv, rrs = form("su(2,1)")
    plus = orbit_plus(rs, inv, rs.rho)
    assert {w.coords for w in plus} == {(F(-1), F(-1)), (F(-1), F(0)), (F(0), F(-1))}
    ch = dual_chamber(rrs)
    for nu in plus:
        pos = cone_position(ch, inv.restrict(nu))
        assert pos.margin >= SignedSqrt.zero()


def test_orbit_plus_nonempty_across_small_forms():
    # compact forms have no split directions at all, so their negative cone
    # is degenerate and the selection is empty; every other form must offer
    # at least one orbit element whose restriction lies in the open cone
    for entry in build_default_catalog():
        if entry.rank > 3:
            continue
        rs, inv, rrs = form(entry.id)
        plus = orbit_plus(rs, inv, rs.rho)
        if restricted_weights(rrs).positive_restricted:
            assert plus, entry.id
        else:
            assert not plus, entry.id


def test_admissible_exponents_match_orbit_plus_restrictions():
    rng = random.Random(4)
    checked = 0
    for entry in build_default_catalog():
        if entry.rank > 3:
            continue
        rs, inv, rrs = form(entry.id)
        if inv.split_rank == 0:
            continue
        chamber = dual_chamber(rrs)
        seeded = [
            Weight.of(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rs.rank))
            for _ in range(3)
        ]
        for lam in [rs.rho, *rs.fundamental_weights, *seeded]:
            reference = {
                inv.restrict(nu) for nu in orbit_plus(rs, inv, lam, chamber=chamber)
            }
            got = admissible_exponents(rs, inv, chamber, lam)
            assert isinstance(got, frozenset)
            assert got == reference, (entry.id, lam)
            checked += 1
    assert checked > 100


def antidominant_restriction_reference(rs, inv, lam):
    """w0 applied to the dominant representative, then carried into theta's
    chamber and restricted: two chases."""
    antidominant = apply(longest_element(rs), dominant_representative(rs, lam)[0])
    return inv.restrict(apply(inv.chamber, antidominant))


def test_antidominant_restriction_matches_reference_on_catalog():
    rng = random.Random(8)
    checked = 0
    for entry in build_default_catalog():
        rs, inv, _ = form(entry.id)
        seeded = [
            Weight.of(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rs.rank))
            for _ in range(10)
        ]
        for lam in [rs.rho, Weight.zero(rs.rank), *rs.fundamental_weights, *seeded]:
            want = antidominant_restriction_reference(rs, inv, lam)
            assert antidominant_restriction(rs, inv, lam) == want, (entry.id, lam)
            checked += 1
    assert checked > 800


@settings(deadline=None, derandomize=True, max_examples=200)
@given(form_id=st.sampled_from(default_catalog_ids()), data=st.data())
def test_antidominant_restriction_matches_reference_on_drawn_weights(form_id, data):
    rs, inv, _ = form(form_id)
    lam = Weight.of(data.draw(st.lists(rationals, min_size=rs.rank, max_size=rs.rank)))
    want = antidominant_restriction_reference(rs, inv, lam)
    assert antidominant_restriction(rs, inv, lam) == want


def test_antidominant_restriction_is_admissible_when_any_exponent_is():
    # on the +-w involutions the positive system is often re-chosen, and the
    # default exponent is then restricted in theta's chamber, where _walk starts
    rng = random.Random(29)
    rechosen = admitted = 0
    for t in PM_W_TYPES:
        for rs, inv in pm_w_involutions(t):
            try:
                rrs = restricted_roots(rs, inv)
            except CartanDSError:
                continue
            rechosen += not inv.default_compatible
            seeded = [
                Weight.of(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank))
                for _ in range(4)
            ]
            for lam in [rs.rho, *rs.fundamental_weights, *seeded]:
                exponent = antidominant_restriction(rs, inv, lam)
                assert exponent == antidominant_restriction_reference(rs, inv, lam)
                admissible = admissible_exponents(rs, inv, rrs, lam)
                assert (exponent in admissible) == bool(admissible), (inv.theta, lam)
                admitted += bool(admissible) and not inv.default_compatible
    # 153 re-chosen chambers, 1262 weights with admissible exponents among them
    assert rechosen >= 150 and admitted >= 1200, (rechosen, admitted)


def test_admissible_exponents_take_the_open_interior():
    # in sl(3,R) the orbit of rho is the root set: -a1 and -a2 lie on the
    # boundary of the negative cone and only -a1-a2 inside it
    rs, inv, rrs = form("sl(3,R)")
    chamber = dual_chamber(rrs)
    restrictions = {inv.restrict(nu) for nu in weyl_orbit(rs, rs.rho)}
    closed = {
        e for e in restrictions if cone_position(chamber, e).margin >= SignedSqrt.zero()
    }
    assert len(closed) == 3
    assert admissible_exponents(rs, inv, chamber, rs.rho) == {inv.restrict(-rs.rho)}

