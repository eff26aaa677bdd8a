"""Exact square-root margins, the dual cone, and the square-integrability check."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    FormalDSDatum,
    InvalidDatum,
    SignedSqrt,
    Weight,
    admissible_exponents,
    build_default_catalog,
    catalog_form,
    cone_position,
    dominates,
    dual_chamber,
    entry_involution,
    entry_root_system,
    l2_check,
    leading_exponents,
    monoid_member,
    orbit_plus,
    orbit_restrictions,
    restricted_roots,
    sorted_exponents,
    validate_datum,
)
from cartan_ds import linalg
from cartan_ds.exponents import BOUNDARY_OR_OUTSIDE, NEG_INTERIOR

F = Fraction


def form(form_id):
    entry = catalog_form(form_id)
    rs = entry_root_system(entry)
    inv = entry_involution(entry, rs=rs)
    return rs, inv, restricted_roots(rs, inv)


# ---------------------------------------------------------------------------
# SignedSqrt
# ---------------------------------------------------------------------------


def test_signed_sqrt_invariants():
    z = SignedSqrt.zero()
    assert z.sign == 0 and z.square == 0
    with pytest.raises(ValueError):
        SignedSqrt(sign=1, square=F(0))
    with pytest.raises(ValueError):
        SignedSqrt(sign=0, square=F(2))
    with pytest.raises(ValueError):
        SignedSqrt.sqrt_of(F(-1))
    with pytest.raises(ValueError):
        SignedSqrt.of_ratio(F(1), F(0))


def test_signed_sqrt_equality_and_normalisation():
    # 2 / sqrt(2) equals sqrt(2)
    assert SignedSqrt.of_ratio(F(2), F(2)) == SignedSqrt.sqrt_of(F(2))
    assert SignedSqrt.of_ratio(F(-1), F(2)) == SignedSqrt.sqrt_of(F(1, 2)).scale(F(-1))


def test_signed_sqrt_scaling():
    s = SignedSqrt.of_ratio(F(-1), F(2))  # -1/sqrt(2)
    assert s.scale(F(-3)) == SignedSqrt.sqrt_of(F(9, 2))
    assert s.scale(F(0)) == SignedSqrt.zero()
    assert s.scale(F(2)).square == F(2) and s.scale(F(2)).sign == -1


def test_signed_sqrt_total_order():
    values = [
        SignedSqrt.sqrt_of(F(2)),
        SignedSqrt.zero(),
        SignedSqrt.of_ratio(F(-1), F(2)),
        SignedSqrt.sqrt_of(F(1, 2)),
        SignedSqrt.of_ratio(F(-2), F(1)),
    ]
    got = sorted(values)
    want = [
        SignedSqrt.of_ratio(F(-2), F(1)),  # -2
        SignedSqrt.of_ratio(F(-1), F(2)),  # -1/sqrt(2)
        SignedSqrt.zero(),
        SignedSqrt.sqrt_of(F(1, 2)),
        SignedSqrt.sqrt_of(F(2)),
    ]
    assert got == want


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(deadline=None, derandomize=True)
@given(a=rationals, b=st.fractions(min_value=0, max_value=9, max_denominator=12))
def test_signed_sqrt_order_matches_squaring_oracle(a, b):
    """sign-aware comparison of a and sqrt(b) agrees with comparing a*|a| to b."""
    x = SignedSqrt.of_ratio(a, F(2)) if a else SignedSqrt.zero()
    y = SignedSqrt.sqrt_of(b)
    lhs = a * abs(a) / 2  # signed square of a/sqrt(2)
    assert (x < y) == (lhs < b)
    assert (x == y) == (lhs == b)


@settings(deadline=None, derandomize=True)
@given(t=rationals, num=rationals)
def test_signed_sqrt_scale_is_linear(t, num):
    s = SignedSqrt.of_ratio(num, F(3)) if num else SignedSqrt.zero()
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
    assert [r.coords for r in ch.facet_rays] == [(F(1), F(1))]
    pos = cone_position(ch, -rs.rho)
    assert pos.kind == NEG_INTERIOR
    assert pos.margin == SignedSqrt.sqrt_of(F(2))
    assert pos.ray_pairings == (F(-2),)


def test_split_rank_two_margins():
    rs, inv, rrs = form("sl(3,R)")
    ch = dual_chamber(rrs)
    assert {r.coords for r in ch.facet_rays} == {
        (F(1, 3), F(2, 3)),
        (F(2, 3), F(1, 3)),
    }
    assert cone_position(ch, -rs.rho).margin == SignedSqrt.sqrt_of(F(3, 2))
    assert cone_position(ch, -rs.rho).kind == NEG_INTERIOR
    # a negated simple root sits on a wall of the cone
    wall = cone_position(ch, Weight.of([-1, 0]))
    assert wall.kind == BOUNDARY_OR_OUTSIDE and wall.margin == SignedSqrt.zero()
    # the dominant weight itself is strictly outside: negative margin
    outside = cone_position(ch, rs.rho)
    assert outside.kind == BOUNDARY_OR_OUTSIDE
    assert outside.margin == SignedSqrt.sqrt_of(F(3, 2)).scale(F(-1))


def test_compact_form_has_degenerate_chamber():
    rs, inv, rrs = form("compact(A2)")
    ch = dual_chamber(rrs)
    assert not ch.fulldim
    assert ch.facet_rays == () and ch.positive_restricted == frozenset()
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


# ---------------------------------------------------------------------------
# shift monoid and leading exponents
# ---------------------------------------------------------------------------


def test_monoid_membership_basics():
    rs, inv, rrs = form("sl(3,R)")
    assert monoid_member(rrs, rs.rho)
    assert monoid_member(rrs, Weight.of([1, 0]))
    assert monoid_member(rrs, Weight.zero(2))
    assert not monoid_member(rrs, Weight.of([-1, 0]))
    assert not monoid_member(rrs, rs.fundamental_weights[0])  # (2/3, 1/3)


def test_monoid_against_linear_solve_oracle():
    """Membership must agree with exact coordinates in the simple restricted
    basis: member iff all coefficients are nonnegative integers."""
    rs, inv, rrs = form("sl(3,R)")
    basis = [list(r.coords) for r in rrs.simple_restricted]
    mat = [[basis[j][i] for j in range(len(basis))] for i in range(rs.rank)]
    candidates = [
        Weight.of([F(a, d), F(b, d)])
        for a in range(-4, 5)
        for b in range(-4, 5)
        for d in (1, 2, 3)
    ]
    for v in candidates:
        sol = linalg.solve(mat, list(v.coords))
        expected = sol is not None and all(
            c.denominator == 1 and c >= 0 for c in sol
        )
        assert monoid_member(rrs, v) == expected, v.coords


def test_dominance_and_leading_exponents():
    rs, inv, rrs = form("sl(3,R)")
    a1 = Weight.of([1, 0])
    a2 = Weight.of([0, 1])
    assert dominates(rrs, -rs.rho, -rs.rho - a1)
    assert not dominates(rrs, -rs.rho - a1, -rs.rho)
    assert leading_exponents(rrs, {-rs.rho, -rs.rho - a1}) == frozenset({-rs.rho})
    # an incomparable pair survives intact
    pair = frozenset({-a1, -a2})
    assert leading_exponents(rrs, pair) == pair
    assert leading_exponents(rrs, set()) == frozenset()


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


def test_orbit_restrictions_frozen_rank_one():
    rs, inv, rrs = form("su(2,1)")
    got = {w.coords for w in orbit_restrictions(rs, inv, rs.rho)}
    assert got == {
        (F(1), F(1)),
        (F(-1), F(-1)),
        (F(1, 2), F(1, 2)),
        (F(-1, 2), F(-1, 2)),
    }


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
        rs = entry_root_system(entry)
        if rs.rank > 3:
            continue
        inv = entry_involution(entry, rs=rs)
        rrs = restricted_roots(rs, inv)
        plus = orbit_plus(rs, inv, rs.rho)
        if rrs.positive_restricted:
            assert plus, entry.id
        else:
            assert not plus, entry.id


def test_admissible_exponents_match_orbit_plus_restrictions():
    rng = random.Random(4)
    checked = 0
    for entry in build_default_catalog():
        rs = entry_root_system(entry)
        if rs.rank > 3:
            continue
        inv = entry_involution(entry, rs=rs)
        if inv.split_rank == 0:
            continue
        chamber = dual_chamber(restricted_roots(rs, inv))
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


def test_admissible_exponents_take_the_open_interior():
    # in sl(3,R) the orbit of rho is the root set: -a1 and -a2 lie on the
    # boundary of the negative cone and only -a1-a2 inside it
    rs, inv, rrs = form("sl(3,R)")
    chamber = dual_chamber(rrs)
    restrictions = orbit_restrictions(rs, inv, rs.rho)
    closed = {
        e for e in restrictions if cone_position(chamber, e).margin >= SignedSqrt.zero()
    }
    assert len(closed) == 3
    assert admissible_exponents(rs, inv, chamber, rs.rho) == {inv.restrict(-rs.rho)}


# ---------------------------------------------------------------------------
# datum validation and the square-integrability report
# ---------------------------------------------------------------------------


def test_validate_datum_rejects_wrong_rank_exponent():
    rs, inv, rrs = form("su(2,1)")
    bad = FormalDSDatum(
        weight=rs.rho, exponents=frozenset({Weight.of([1, 0, 0])}), label="bad"
    )
    with pytest.raises(InvalidDatum):
        validate_datum(rs, inv, bad)


def test_validate_datum_rejects_non_restriction():
    rs, inv, rrs = form("su(2,1)")
    bad = FormalDSDatum(
        weight=rs.rho, exponents=frozenset({rs.fundamental_weights[0]}), label="bad"
    )
    with pytest.raises(InvalidDatum):
        validate_datum(rs, inv, bad)


def test_validate_datum_accepts_orbit_restriction():
    rs, inv, rrs = form("su(2,1)")
    ok = FormalDSDatum(
        weight=rs.rho, exponents=frozenset({inv.restrict(-rs.rho)}), label="ok"
    )
    assert validate_datum(rs, inv, ok) is None


def test_l2_check_passes_on_interior_exponent():
    rs, inv, rrs = form("su(2,1)")
    datum = FormalDSDatum(weight=rs.rho, exponents=frozenset({-rs.rho}), label="t")
    report = l2_check(rrs, datum)
    assert report.passed
    (pair,) = report.positions
    exp, pos = pair
    assert exp == -rs.rho
    assert pos.kind == NEG_INTERIOR and pos.margin == SignedSqrt.sqrt_of(F(2))


def test_l2_check_fails_when_any_exponent_escapes():
    rs, inv, rrs = form("su(2,1)")
    datum = FormalDSDatum(
        weight=rs.rho, exponents=frozenset({rs.rho, -rs.rho}), label="t"
    )
    report = l2_check(rrs, datum)
    assert not report.passed
    kinds = {exp.coords: pos.kind for exp, pos in report.positions}
    assert kinds[(F(-1), F(-1))] == NEG_INTERIOR
    assert kinds[(F(1), F(1))] == BOUNDARY_OR_OUTSIDE


def test_l2_check_vacuous_on_empty_exponent_set():
    rs, inv, rrs = form("su(2,1)")
    datum = FormalDSDatum(weight=rs.rho, exponents=frozenset(), label="empty")
    report = l2_check(rrs, datum)
    assert report.passed and report.positions == ()
