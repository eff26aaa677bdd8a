"""Fraction weights kept as the reference for the int ``Weight``.

``FractionWeight`` is the weight as a tuple of Fractions, one per simple-root
coordinate, with Fraction arithmetic; ``cartan_ds.Weight`` replaced it with
int numerators over one denominator, and tests compare the two.  The
reference pairing, fundamental-weight coordinates and matrix action below
work on Fraction coordinates.

``restricted_weights`` maps a restricted root system's int data to the
weights that tests compare: each doubled restricted root d is the weight
d / 2, and a vanishing index names the root itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import linalg_reference

from cartan_ds import Weight
from cartan_ds.linalg import frac
from cartan_ds.realform import _indivisible

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
    return sum(
        (x.coords[i] * rs.form[i][j] * y.coords[j] for i in range(rs.rank) for j in range(rs.rank)),
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
    ``vanishing_roots`` and ``indivisible`` (restricted roots whose half is
    not one)."""
    mult = rrs.doubled_multiplicity
    half = {d: Weight(d).scale(HALF) for d in mult}
    return SimpleNamespace(
        multiplicity={half[d]: m for d, m in mult.items()},
        positive_restricted=frozenset(half[d] for d in rrs.doubled_positive),
        vanishing_roots=frozenset(
            Weight(rrs.root_system.roots[k]) for k in rrs.vanishing_indices
        ),
        indivisible=frozenset(half[d] for d in mult if _indivisible(d, mult)),
    )
