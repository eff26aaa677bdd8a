"""The restricted root system and its dual cone against Fraction references.

``restricted_roots`` finds everything on the doubled int restrictions, keeps
the vanishing roots as root indices, and reads each facet ray's integer
covector and its squared length from the int adjugate of the Gram matrix;
the reference below is the Weight-sum construction it replaced, and the
Fraction dual chamber and cone position are those of
``tests/restricted_reference.py``.  Each ray's scale, its covector over its
form, is read off the simple restricted roots (``weight_reference``), not
stored.  In the coordinates of theta's chamber transform, each covector
entry must be the ray's Fraction pairing with a compatible simple root, never
negative, and the doubled restriction's columns those roots' v - theta(v).

The restricted roots span the split part: on every involution the tests
build (the catalog, the +-w of ``PM_W_TYPES`` and the involutive
automorphisms of ``AUTOMORPHISM_TYPES``) there are ``split_rank`` rays, and
each stored squared length is c F^-1 c from the Fraction inverse of F.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    Weight,
    apply,
    build_default_catalog,
    cone_position,
    restricted_roots,
    word_element,
)
from cartan_ds.rootdata import closure
from forms import PM_W_TYPES, form, involutive_automorphisms, pm_w_involutions
import linalg_reference
from restricted_reference import reference_chamber, reference_cone_position
from weight_reference import pairing, ray_pairings, ray_scales, restricted_weights
from weyl_reference import reference_reflection

HALF = Fraction(1, 2)


def reference_restricted(rs, inv):
    """Multiplicities (keyed by the restricted roots), rho and simple roots
    from Weight sums."""
    restrictions = {root: inv.restrict(root) for root in map(Weight, rs.roots)}
    mult = {}
    vanishing = []
    for root, v in restrictions.items():
        if v.is_zero():
            vanishing.append(root)
        else:
            mult[v] = mult.get(v, 0) + 1
    restricted = frozenset(mult)
    positive = frozenset(
        restrictions[r]
        for r in (Weight(rs.roots[k]) for k in inv.positive_indices)
        if not restrictions[r].is_zero()
    )
    rho_r = Weight.zero(rs.rank)
    for v in positive:
        rho_r = rho_r + v.scale(Fraction(mult[v], 2))
    sums = {a + b for a in positive for b in positive}
    simple = tuple(sorted((v for v in positive if v not in sums), key=lambda w: w.coords))
    return {
        "multiplicity": mult,
        "positive_restricted": positive,
        "vanishing_roots": frozenset(vanishing),
        "rho_restricted": rho_r,
        "simple_restricted": simple,
        "indivisible": frozenset(v for v in restricted if v.scale(HALF) not in restricted),
    }


def reference_simple_coordinates(rrs, xi):
    """xi's coordinates in the simple restricted basis, from an exact solve."""
    n = rrs.root_system.rank
    simple = restricted_weights(rrs).simple_restricted
    cols = tuple(tuple(s.coords[i] for s in simple) for i in range(n))
    return linalg_reference.solve(cols, xi.coords)


def assert_matches_reference(rs, inv, name):
    rrs = restricted_roots(rs, inv)
    views = restricted_weights(rrs)
    for field, want in reference_restricted(rs, inv).items():
        got = getattr(views, field) if hasattr(views, field) else getattr(rrs, field)
        assert got == want, (name, field)
    rays, spanning = reference_chamber(rrs)
    assert views.facet_rays == rays, name
    assert spanning == bool(rrs.ray_covectors), name
    # the compatible simple roots, and the doubled restriction of each
    simple_roots = [Weight(e) for e in rs.identity.matrix]
    compatible = [apply(inv.chamber, e) for e in simple_roots]
    doubled = [(b - inv.act(b)).nums for b in compatible]
    assert tuple(zip(*rrs.chamber_restriction)) == tuple(doubled), name
    ray_data = zip(rays, rrs.ray_covectors, rrs.chamber_covectors, ray_scales(rrs), rrs.ray_norms)
    for ray, covector, chamber_covector, scale, norm in ray_data:
        assert norm == scale * scale * pairing(rs, ray, ray), name
        for i, e in enumerate(simple_roots):
            assert Fraction(covector[i], scale) == pairing(rs, e, ray), name
        for x, b in zip(chamber_covector, compatible):
            assert x >= 0 and Fraction(x, scale) == pairing(rs, b, ray), name
        # scaled by the lcm of the denominators of form . ray, no further
        assert scale.denominator == 1 and scale > 0, name
        assert math.gcd(scale.numerator, *covector) == 1, name
    return rrs


def test_restricted_roots_match_reference_on_catalog():
    for entry in build_default_catalog():
        assert_matches_reference(*form(entry.id)[:2], entry.id)


def test_restricted_roots_match_reference_on_pm_weyl_involutions():
    checked = 0
    for t in PM_W_TYPES:
        for rs, inv in pm_w_involutions(t):
            rrs = assert_matches_reference(rs, inv, (t, inv.theta))
            # the vanishing group from the simple theta-fixed roots is the one
            # from every vanishing root
            vanishing = restricted_weights(rrs).vanishing_roots
            fixed = vanishing & {Weight(rs.roots[k]) for k in inv.positive_indices}
            simple = [b for b in fixed if not any(b - a in fixed for a in fixed)]
            assert _reflection_group(rs, simple) == _reflection_group(rs, vanishing), (t, inv.theta)
            checked += 1
    assert checked >= 250


AUTOMORPHISM_TYPES = ("A4", "B4", "C4", "D4", "A2xA1", "G2", "A5")


def test_the_rays_span_the_split_part_and_their_norms_are_c_inverse_form_c():
    involutions = [form(entry.id)[:2] for entry in build_default_catalog()]
    involutions += [pair for t in PM_W_TYPES for pair in pm_w_involutions(t)]
    involutions += [pair for t in AUTOMORPHISM_TYPES for pair in involutive_automorphisms(t)]
    compact = 0
    for rs, inv in involutions:
        rrs = restricted_roots(rs, inv)
        assert len(rrs.ray_covectors) == len(rrs.ray_norms) == inv.split_rank, inv.theta
        compact += inv.split_rank == 0
        form_inverse = linalg_reference.inverse(rs.form)
        for c, norm in zip(rrs.ray_covectors, rrs.ray_norms):
            c_over_form = linalg_reference.mat_vec(form_inverse, c)
            assert norm == sum(x * y for x, y in zip(c, c_over_form)), inv.theta
    # a compact form has no rays, and all 828 involutions were checked
    assert compact > 0 and len(involutions) == 828


def _reflection_group(rs, roots):
    gens = [word_element(rs, reference_reflection(rs, b)[1]) for b in roots]
    return set(closure((rs.identity,), lambda w: (word_element(rs, w.word + g.word) for g in gens)))


CONE_FORMS = ("su(2,1)", "sl(3,R)", "sp(2,R)", "so(4,1)", "split(G2)", "su(3,2)",
              "so(5,3)", "split(F4)", "sl(4,R)", "so(4,4)")
coefficient = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(form_id=st.sampled_from(CONE_FORMS), data=st.data())
def test_cone_position_matches_fraction_reference(form_id, data):
    rs, inv, rrs = form(form_id)
    lam = Weight(tuple(data.draw(coefficient) for _ in range(rs.rank)))
    for v in (lam, inv.restrict(lam)):
        pos = cone_position(rrs, v)
        assert (pos.neg_interior, pos.margin, ray_pairings(rrs, v)) == reference_cone_position(
            rrs, v
        )


@settings(deadline=None, derandomize=True, max_examples=200)
@given(form_id=st.sampled_from(CONE_FORMS), data=st.data())
def test_ray_pairings_are_the_simple_restricted_coordinates(form_id, data):
    # the facet rays are the basis dual to the simple restricted roots, so a
    # vector in their span pairs with the rays in its coordinates there
    rs, inv, rrs = form(form_id)
    positive = sorted(restricted_weights(rrs).positive_restricted, key=lambda w: w.coords)
    xi = Weight.zero(rs.rank)
    for beta in positive:
        c = data.draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3, -1, HALF, Fraction(3, 2)]))
        xi = xi + beta.scale(c)
    assert ray_pairings(rrs, xi) == reference_simple_coordinates(rrs, xi)
