"""The restricted root system's vanishing set, dual chamber and cone
position as Fraction references.

``reference_simple`` is the difference search that found the simple
elements of a positive set before they were read off theta's chamber
transform.  ``reference_vanishing`` reads the vanishing roots off a
Weight-keyed table.
``doubled_orbit_restrictions`` and ``orbit_restrictions`` close a weight's
orbit with ``weyl_orbit`` (and its CapExceeded) and restrict each point on
ints, v - theta(v); they give the references their shift sets.
``reference_chamber`` finds the facet rays from the Fraction inverse of the
Gram matrix of the simple restricted roots, and ``reference_cone_position``
locates a vector from its Fraction pairings with those rays; it reads nothing
of the chamber but its simple restricted roots.  ``reference_margin`` is the
one Fraction margin rule: one SignedSqrt -p/|X| per facet ray, the least
kept.
"""

import functools
import operator

from cartan_ds import DEFAULT_CAP, SignedSqrt, Weight, weyl_orbit
from cartan_ds.exponents import BOUNDARY_OR_OUTSIDE, NEG_INTERIOR
from cartan_ds.rootdata import _int_mat_vec, _weight
import linalg_reference
from weight_reference import pairing, restricted_weights


def reference_simple(positive):
    """The simple elements of a positive set of int tuples, sorted: those
    that are no element plus another."""
    return sorted(
        d
        for d in positive
        if not any(tuple(map(operator.sub, d, e)) in positive for e in positive)
    )


def reference_vanishing(table):
    """The roots whose doubled restriction vanishes, from a Weight-keyed table."""
    return frozenset(root for root, d in table.items() if not any(d))


def doubled_orbit_restrictions(rs, inv, lam, cap=DEFAULT_CAP):
    """2s for lam's denominator s, and the distinct doubled restrictions
    v - theta(v) of the points v of s times lam's closed int orbit: the
    restrictions of lam's orbit are d / 2s."""
    doubled = set()
    for w in weyl_orbit(rs, lam, cap):
        v = [x * (lam.den // w.den) for x in w.nums]
        doubled.add(tuple(map(operator.sub, v, _int_mat_vec(inv.theta, v))))
    return 2 * lam.den, doubled


def orbit_restrictions(rs, inv, lam, cap=DEFAULT_CAP):
    """The restrictions of lam's Weyl orbit to the split part."""
    scale, doubled = doubled_orbit_restrictions(rs, inv, lam, cap)
    return frozenset(_weight(d, scale) for d in doubled)


@functools.lru_cache(maxsize=None)
def reference_chamber(rrs):
    """Facet rays from the Fraction Gram inverse, and fulldim."""
    simple = restricted_weights(rrs).simple_restricted
    r = len(simple)
    rays = []
    if r:
        gram = tuple(tuple(pairing(rrs.root_system, a, b) for b in simple) for a in simple)
        gram_inv = linalg_reference.inverse(gram)
        for j in range(r):
            ray = Weight.zero(rrs.root_system.rank)
            for k in range(r):
                ray = ray + simple[k].scale(gram_inv[k][j])
            rays.append(ray)
    for gen in restricted_weights(rrs).positive_restricted:
        assert all(pairing(rrs.root_system, gen, ray) >= 0 for ray in rays)
    split_rank = rrs.involution.split_rank
    return tuple(rays), split_rank > 0 and r == split_rank


@functools.lru_cache(maxsize=None)
def reference_ray_data(rrs):
    """Each facet ray's Fraction pairings with the simple roots, its squared
    length, and fulldim."""
    rs = rrs.root_system
    rays, fulldim = reference_chamber(rrs)
    covectors = [tuple(pairing(rs, Weight(e), ray) for e in rs.identity.matrix) for ray in rays]
    return covectors, [pairing(rs, ray, ray) for ray in rays], fulldim


def reference_margin(pairings, norms, fulldim):
    """(interior, margin) from Fraction ray pairings p and squared ray norms n:
    interior when the chamber is full-dimensional and every p < 0, and the
    least of the margins -p/sqrt(n)."""
    margins = [
        SignedSqrt(-1 if p > 0 else 1, p * p / n) if p else SignedSqrt.zero()
        for p, n in zip(pairings, norms)
    ]
    return fulldim and all(p < 0 for p in pairings), min(margins, default=SignedSqrt.zero())


def reference_cone_position(rrs, v):
    """(kind, margin, ray pairings) from Fraction pairings with the rays."""
    covectors, norms, fulldim = reference_ray_data(rrs)
    pairings = tuple(sum(map(operator.mul, v.coords, f)) for f in covectors)
    interior, margin = reference_margin(pairings, norms, fulldim)
    return (NEG_INTERIOR if interior else BOUNDARY_OR_OUTSIDE), margin, pairings
