"""The restricted root system and its dual cone against Fraction references.

``restricted_roots`` finds everything on the doubled int restrictions and
stores each facet ray's integer covector and squared norm; the references
below are the Weight-sum construction, the Fraction dual chamber and the
Fraction cone position it replaced, kept here to compare against.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    CartanDSError,
    SignedSqrt,
    Weight,
    build_default_catalog,
    build_root_system,
    catalog_form,
    cone_position,
    entry_involution,
    entry_root_system,
    enumerate_weyl,
    monoid_member,
    restricted_roots,
    validate_involution,
)
from cartan_ds import linalg
from cartan_ds.exponents import BOUNDARY_OR_OUTSIDE, NEG_INTERIOR
from cartan_ds.rootdata import closure

HALF = Fraction(1, 2)
PM_W_TYPES = ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1", "A2xA1", "D4")


def reference_restricted(rs, inv):
    """Restricted roots, multiplicities, rho and simple roots from Weight sums."""
    restrictions = {root: inv.restrict(root) for root in rs.all_roots}
    mult = {}
    vanishing = []
    for root, v in restrictions.items():
        if v.is_zero():
            vanishing.append(root)
        else:
            mult[v] = mult.get(v, 0) + 1
    restricted = frozenset(mult)
    positive = frozenset(
        restrictions[r] for r in inv.positive_roots if not restrictions[r].is_zero()
    )
    rho_r = Weight.zero(rs.rank)
    for v in positive:
        rho_r = rho_r + v.scale(Fraction(mult[v], 2))
    sums = {a + b for a in positive for b in positive}
    simple = tuple(sorted((v for v in positive if v not in sums), key=lambda w: w.coords))
    return {
        "restricted_roots": restricted,
        "multiplicity": mult,
        "positive_restricted": positive,
        "vanishing_roots": frozenset(vanishing),
        "rho_restricted": rho_r,
        "simple_restricted": simple,
        "indivisible": frozenset(v for v in restricted if v.scale(HALF) not in restricted),
    }


def reference_chamber(rrs):
    """Facet rays from the Fraction Gram inverse, and fulldim."""
    simple = rrs.simple_restricted
    r = len(simple)
    rays = []
    if r:
        gram = tuple(tuple(rrs.pairing(a, b) for b in simple) for a in simple)
        gram_inv = linalg.inverse(gram)
        for j in range(r):
            ray = Weight.zero(rrs.root_system.rank)
            for k in range(r):
                ray = ray + simple[k].scale(gram_inv[k][j])
            rays.append(ray)
    for gen in rrs.positive_restricted:
        assert all(rrs.pairing(gen, ray) >= 0 for ray in rays)
    return tuple(rays), rrs.split_rank > 0 and r == rrs.split_rank


def reference_cone_position(rrs, v):
    """(kind, margin, ray pairings) from Fraction pairings with the rays."""
    rays, fulldim = reference_chamber(rrs)
    pairings = tuple(rrs.pairing(v, ray) for ray in rays)
    margin = None
    for p, ray in zip(pairings, rays):
        value = SignedSqrt.of_ratio(-p, rrs.pairing(ray, ray))
        if margin is None or value < margin:
            margin = value
    interior = fulldim and all(p < 0 for p in pairings)
    kind = NEG_INTERIOR if interior else BOUNDARY_OR_OUTSIDE
    return kind, margin or SignedSqrt.zero(), pairings


def reference_monoid_member(rrs, xi):
    """Coordinates in the simple restricted basis from an exact solve."""
    simple = rrs.simple_restricted
    if xi.is_zero():
        return True
    if not simple:
        return False
    n = rrs.root_system.rank
    cols = tuple(tuple(s.coords[i] for s in simple) for i in range(n))
    sol = linalg.solve(cols, xi.coords)
    if sol is None:
        return False
    rebuilt = Weight.zero(n)
    for c, s in zip(sol, simple):
        rebuilt = rebuilt + s.scale(c)
    return rebuilt == xi and all(c.denominator == 1 and c >= 0 for c in sol)


def assert_matches_reference(rs, inv, name):
    rrs = restricted_roots(rs, inv)
    for field, want in reference_restricted(rs, inv).items():
        assert getattr(rrs, field) == want, (name, field)
    rays, fulldim = reference_chamber(rrs)
    assert rrs.facet_rays == rays, name
    assert rrs.fulldim == fulldim, name
    ray_data = zip(rays, rrs.ray_covectors, rrs.ray_scales, rrs.ray_norms)
    for ray, covector, scale, norm in ray_data:
        assert norm == rs.pairing(ray, ray), name
        for i, e in enumerate(rs.simple_roots):
            assert Fraction(covector[i], scale) == rs.pairing(e, ray), name
        # scaled by the lcm of the denominators of form . ray, no further
        assert scale > 0 and math.gcd(scale, *covector) == 1, name
    return rrs


def pm_w_involutions(cartan_type):
    """Every theta = +-w, w in W, that validates as an involution."""
    rs = build_root_system(cartan_type)
    for w in sorted(enumerate_weyl(rs), key=lambda w: w.matrix):
        for sign in (1, -1):
            theta = tuple(tuple(sign * x for x in row) for row in w.matrix)
            try:
                yield rs, validate_involution(rs, theta)
            except CartanDSError:
                continue


def test_restricted_roots_match_reference_on_catalog():
    for entry in build_default_catalog():
        rs = entry_root_system(entry)
        assert_matches_reference(rs, entry_involution(entry, rs=rs), entry.id)


def test_restricted_roots_match_reference_on_pm_weyl_involutions():
    checked = 0
    for t in PM_W_TYPES:
        for rs, inv in pm_w_involutions(t):
            rrs = assert_matches_reference(rs, inv, (t, inv.theta))
            # the vanishing group from the simple theta-fixed roots is the one
            # from every vanishing root
            fixed = rrs.vanishing_roots & inv.positive_roots
            simple = [b for b in fixed if not any(b - a in fixed for a in fixed)]
            assert _reflection_group(rs, simple) == _reflection_group(
                rs, rrs.vanishing_roots
            ), (t, inv.theta)
            checked += 1
    assert checked >= 250


def _reflection_group(rs, roots):
    gens = [rs.reflection_in_root(b) for b in roots]
    return set(closure((rs.identity,), lambda w: (w.compose(g) for g in gens)))


CONE_FORMS = ("su(2,1)", "sl(3,R)", "sp(2,R)", "so(4,1)", "split(G2)", "su(3,2)",
              "so(5,3)", "split(F4)", "sl(4,R)", "so(4,4)")
coefficient = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(form_id=st.sampled_from(CONE_FORMS), data=st.data())
def test_cone_position_matches_fraction_reference(form_id, data):
    entry = catalog_form(form_id)
    rs = entry_root_system(entry)
    inv = entry_involution(entry, rs=rs)
    rrs = restricted_roots(rs, inv)
    lam = Weight(tuple(data.draw(coefficient) for _ in range(rs.rank)))
    for v in (lam, inv.restrict(lam)):
        pos = cone_position(rrs, v)
        assert (pos.kind, pos.margin, pos.ray_pairings) == reference_cone_position(rrs, v)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(form_id=st.sampled_from(CONE_FORMS), data=st.data())
def test_monoid_member_matches_solve_reference(form_id, data):
    entry = catalog_form(form_id)
    rs = entry_root_system(entry)
    inv = entry_involution(entry, rs=rs)
    rrs = restricted_roots(rs, inv)
    positive = sorted(rrs.positive_restricted, key=lambda w: w.coords)
    xi = Weight.zero(rs.rank)
    for beta in positive:
        c = data.draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3, -1, HALF, Fraction(3, 2)]))
        xi = xi + beta.scale(c)
    assert monoid_member(rrs, xi) == reference_monoid_member(rrs, xi)
    # a vector off the split part is never a member
    off = xi + rs.simple_roots[0].scale(HALF)
    assert monoid_member(rrs, off) == reference_monoid_member(rrs, off)
