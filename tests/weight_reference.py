"""Fraction weights kept as the reference for the int ``Weight``.

``FractionWeight`` is the weight as a tuple of Fractions, one per simple-root
coordinate, with Fraction arithmetic; ``cartan_ds.Weight`` replaced it with
int numerators over one denominator, and tests compare the two.  The
reference pairing, fundamental-weight coordinates and matrix action below
work on Fraction coordinates.

``restricted_weights`` maps a restricted root system's int data to the
weights that tests compare: each doubled restricted root d is the weight
d / 2, a vanishing index names the root itself, and the facet ray with int
covector c is F^-1 c / s, F the invariant form.  The scale s is read off the
simple restricted roots, not the library: ray j is dual to the simple
restricted root d_j / 2, so s_j = c_j.d_j / 2 (``ray_scales``).
``ray_pairings`` gives a vector's Fraction pairings with those rays, c.v / s,
from the int products of its numerators with the covectors; ``pairings_of``
gives them for any int products at a scale.  ``ray_maxima`` puts a set of
weights on the search's int kernel, ``translation._ray_maxima``: their
numerators at one scale, the lcm of their denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import linalg_reference

from cartan_ds import Weight
from cartan_ds.linalg import frac
from cartan_ds.realform import _indivisible
from cartan_ds.rootdata import _int_mat_vec
from cartan_ds.translation import _ray_maxima

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class FractionWeight:
    """Weight-space vector in simple-root coordinates, one Fraction each."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(values) -> "FractionWeight":
        return FractionWeight(tuple(frac(v) for v in values))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "FractionWeight") -> "FractionWeight":
        return FractionWeight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FractionWeight") -> "FractionWeight":
        return FractionWeight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FractionWeight":
        return FractionWeight(tuple(-a for a in self.coords))

    def scale(self, t) -> "FractionWeight":
        f = frac(t)
        return FractionWeight(tuple(f * a for a in self.coords))


def pairing(rs, x: FractionWeight, y: FractionWeight) -> Fraction:
    """The invariant form on Fraction coordinates."""
    xs, ys = x.coords, y.coords
    return sum(
        (xs[i] * f * ys[j] for i, row in enumerate(rs.form) for j, f in enumerate(row) if f),
        Fraction(0),
    )


def apply_matrix(mat, x: FractionWeight) -> FractionWeight:
    return FractionWeight(linalg_reference.mat_vec(mat, x.coords))


def fw_coords(rs, x: FractionWeight) -> tuple[Fraction, ...]:
    return apply_matrix(rs.cartan_matrix, x).coords


def weight_from_fw(rs, values) -> FractionWeight:
    """sum_i values_i F_i, F_i column i of the Fraction inverse Cartan matrix."""
    return apply_matrix(linalg_reference.inverse(rs.cartan_matrix), FractionWeight.of(values))


def restricted_weights(rrs) -> SimpleNamespace:
    """The weights of rrs's int data: ``multiplicity``, ``positive_restricted``,
    ``vanishing_roots``, ``indivisible`` (restricted roots whose half is
    not one), ``simple_restricted`` in the stored order, and ``facet_rays``."""
    mult = rrs.doubled_multiplicity
    half = {d: Weight(d).scale(HALF) for d in mult}
    form_inverse = linalg_reference.inverse(rrs.root_system.form)
    return SimpleNamespace(
        multiplicity={half[d]: m for d, m in mult.items()},
        positive_restricted=frozenset(half[d] for d in rrs.doubled_positive),
        vanishing_roots=frozenset(
            Weight(rrs.root_system.roots[k]) for k in rrs.vanishing_indices
        ),
        indivisible=frozenset(half[d] for d in mult if _indivisible(d, mult)),
        simple_restricted=tuple(half[d] for d in rrs.doubled_simple),
        facet_rays=tuple(
            Weight(linalg_reference.mat_vec(form_inverse, c)).scale(1 / s)
            for c, s in zip(rrs.ray_covectors, ray_scales(rrs))
        ),
    )


def ray_scales(rrs) -> tuple[Fraction, ...]:
    """Each ray's scale s_j = c_j.d_j / 2, d_j the doubled simple restricted
    root the ray is dual to: (X_j, d_j / 2) = 1 and (v, X_j) = c_j.v / s_j."""
    return tuple(
        Fraction(sum(x * y for x, y in zip(c, d)), 2)
        for c, d in zip(rrs.ray_covectors, rrs.doubled_simple)
    )


def pairings_of(rrs, products, scale) -> tuple[Fraction, ...]:
    """The Fraction ray pairings x_j / (s_j S) of int products at scale S."""
    return tuple(x / (s * scale) for x, s in zip(products, ray_scales(rrs)))


def ray_pairings(rrs, v: Weight) -> tuple[Fraction, ...]:
    """v's pairing with each facet ray, c.v / s."""
    return pairings_of(rrs, _int_mat_vec(rrs.ray_covectors, v.nums), v.den)


def ray_maxima(rrs, vectors):
    """``_ray_maxima`` of a nonempty set of weights, with the scale it is at:
    each weight's numerators times lcm(denominators) / its denominator."""
    scale = math.lcm(*(v.den for v in vectors))
    return _ray_maxima(rrs, [[x * (scale // v.den) for x in v.nums] for v in vectors]), scale
