"""``translate_line`` against the two-walk version it replaced.

W acts linearly on weights and the open negative cone is closed under
positive scaling, so for an int f >= 1 the admissible exponents of f lam are
f times those of lam.  ``translate_line`` walks lam's orbit once
(``admissible_exponents``) and scales: the datum's exponents, or the whole
admissible set in worst-case mode.  The reference below is the function as
it was before: it also walks the orbit of f lam, takes the worst-case set
from that walk and, in default mode, checks that every scaled exponent is in
it (``ConsistencyError`` otherwise).

The two are compared, results and raised errors alike, in both modes on
every catalog form of rank <= 4 at lam in {rho, omega_1, omega_2}, the
datum's exponent the restriction of lam's antidominant point, and
k in {1, 2, 6}: 918 calls, of which 222 raise InvalidDatum.  They are also
compared on drawn weights, line parameters, integrality constants and
exponent sets.  An orbit past the cap is refused in both modes, and one call
walks one orbit.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    BadParameters,
    CapExceeded,
    CartanDSError,
    ConsistencyError,
    FormalDSDatum,
    InvalidDatum,
    TranslationConfig,
    Weight,
    admissible_exponents,
    antidominant_restriction,
    build_default_catalog,
    exponents,
    translate_line,
)
from cartan_ds.exponents import _admissible, _key
from forms import form

SMALL_FORMS = [e.id for e in build_default_catalog() if e.rank <= 4]
DRAWN_FORMS = [e.id for e in build_default_catalog() if e.rank <= 3]


def reference_translate_line(rs, inv, chamber, datum, k, cfg):
    """The two-walk ``translate_line``: lam's orbit, then f lam's."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise BadParameters(f"line parameter k must be an integer, got {k!r}")
    if k < 0:
        raise BadParameters("line parameter k must be nonnegative")
    factor = k * cfg.integrality + 1
    base = _admissible(rs, inv, chamber, datum.weight, cfg.cap)
    if any(_key(base, e) is None for e in datum.exponents):
        raise InvalidDatum("exponent is not an admissible restriction of the weight's orbit")
    new_weight = datum.weight.scale(factor)
    if cfg.worst_case_exponents:
        new_exponents = admissible_exponents(rs, inv, chamber, new_weight, cfg.cap)
    else:
        new_exponents = frozenset(e.scale(factor) for e in datum.exponents)
        scaled = _admissible(rs, inv, chamber, new_weight, cfg.cap)
        if any(_key(scaled, e) is None for e in new_exponents):
            raise ConsistencyError(
                "scaled exponent left the admissible set of the scaled weight"
            )
    label = datum.label or "datum"
    return FormalDSDatum(weight=new_weight, exponents=new_exponents, label=f"{label} (line k={k})")


def outcome(call, *args):
    """The result, or the type and message of the library error raised."""
    try:
        return call(*args)
    except CartanDSError as error:
        return type(error), str(error)


def grid_data(form_id):
    rs, inv, rrs = form(form_id)
    for lam in (rs.rho, *rs.fundamental_weights[:2]):
        exponent = antidominant_restriction(rs, inv, lam)
        yield FormalDSDatum(weight=lam, exponents=frozenset({exponent}), label=form_id)


@pytest.mark.parametrize("worst_case", [False, True])
def test_translate_line_matches_the_two_walk_reference_on_the_catalog(worst_case):
    cfg = TranslationConfig(worst_case_exponents=worst_case)
    calls = refused = 0
    for form_id in SMALL_FORMS:
        rs, inv, rrs = form(form_id)
        for datum in grid_data(form_id):
            for k in (1, 2, 6):
                args = rs, inv, rrs, datum, k, cfg
                got = outcome(translate_line, *args)
                assert got == outcome(reference_translate_line, *args), (form_id, datum, k)
                calls += 1
                if isinstance(got, tuple):
                    assert got[0] is InvalidDatum
                    refused += 1
    # half of the 918 calls of both modes, and of their 222 refusals
    assert (calls, refused) == (459, 111)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    form_id=st.sampled_from(DRAWN_FORMS),
    k=st.integers(0, 6),
    integrality=st.integers(1, 3),
    worst_case=st.booleans(),
    data=st.data(),
)
def test_translate_line_matches_the_two_walk_reference_on_drawn_data(
    form_id, k, integrality, worst_case, data
):
    rs, inv, rrs = form(form_id)
    coords = st.fractions(-4, 4, max_denominator=3)
    lam = Weight.of(data.draw(st.lists(coords, min_size=rs.rank, max_size=rs.rank)))
    allowed = sorted(admissible_exponents(rs, inv, rrs, lam), key=lambda e: e.coords)
    chosen = data.draw(st.lists(st.sampled_from(allowed), max_size=3)) if allowed else []
    if data.draw(st.booleans()):
        # an exponent that may or may not be admissible
        chosen.append(inv.restrict(Weight.of(data.draw(
            st.lists(coords, min_size=rs.rank, max_size=rs.rank)
        ))))
    datum = FormalDSDatum(weight=lam, exponents=frozenset(chosen))
    cfg = TranslationConfig(integrality=integrality, worst_case_exponents=worst_case)
    args = rs, inv, rrs, datum, k, cfg
    assert outcome(translate_line, *args) == outcome(reference_translate_line, *args)


@pytest.mark.parametrize("worst_case", [False, True])
def test_translate_line_refuses_an_orbit_past_the_cap(worst_case):
    # split(F4) at rho: a regular orbit of |W| = 1152 points
    rs, inv, rrs = form("split(F4)")
    datum = next(grid_data("split(F4)"))
    cfg = TranslationConfig(worst_case_exponents=worst_case, cap=100)
    args = rs, inv, rrs, datum, 3, cfg
    with pytest.raises(CapExceeded) as got:
        translate_line(*args)
    with pytest.raises(CapExceeded) as want:
        reference_translate_line(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("worst_case", [False, True])
def test_translate_line_walks_one_orbit(monkeypatch, worst_case):
    walk, walks = exponents._walk, []

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(exponents, "_walk", counted)
    rs, inv, rrs = form("split(F4)")
    datum = next(grid_data("split(F4)"))
    cfg = TranslationConfig(worst_case_exponents=worst_case)
    moved = translate_line(rs, inv, rrs, datum, 3, cfg)
    assert len(walks) == 1
    assert moved.weight == rs.rho.scale(Fraction(4))
