"""Formal exponent calculus on the split part: cones, margins, orderings.

Exponents of matrix-coefficient asymptotics live in the dual of the split
part.  The square-integrability condition places them in the negative open
interior of the cone spanned by the positive restricted roots.  The
restricted root system carries that cone's dual description (facet rays with
integer covectors, built once by ``restricted_roots``); this module computes
exact positions and margins relative to it, the monoid partial order on
exponents, and the admissible subset of a Weyl orbit.

Margins are distances of the form q·sqrt(r) with q, r rational; they are kept
exact as a sign plus a squared magnitude, which supports all comparisons and
positive scalings without ever introducing floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable

from . import linalg
from .errors import InvalidDatum, RankMismatch
from .realform import CartanInvolution, RestrictedRootSystem, restricted_roots
from .rootdata import DEFAULT_CAP, RootSystem, Weight, _int_mat_vec, _scaled, weyl_orbit


@total_ordering
@dataclass(frozen=True)
class SignedSqrt:
    """Exact value sign * sqrt(square) with rational square.

    Total order: signs compare first; equal signs compare squared magnitudes,
    reversed on the negative side.  Scaling by a rational multiplies the
    square by the square of the scalar, so linear margin laws hold exactly.
    """

    sign: int
    square: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if self.square < 0:
            raise ValueError("square must be nonnegative")
        if (self.sign == 0) != (self.square == 0):
            raise ValueError("sign is zero exactly when the square is zero")

    @classmethod
    def zero(cls) -> "SignedSqrt":
        return cls(0, Fraction(0))

    @classmethod
    def of_ratio(cls, numerator: Fraction, denominator_square: Fraction) -> "SignedSqrt":
        """The value numerator / sqrt(denominator_square)."""
        if denominator_square <= 0:
            raise ValueError("denominator square must be positive")
        if numerator == 0:
            return cls.zero()
        sign = 1 if numerator > 0 else -1
        return cls(sign, numerator * numerator / denominator_square)

    @classmethod
    def sqrt_of(cls, square: Fraction) -> "SignedSqrt":
        if square < 0:
            raise ValueError("square must be nonnegative")
        return cls(0 if square == 0 else 1, Fraction(square))

    def scale(self, t) -> "SignedSqrt":
        t = linalg.frac(t)
        if t == 0 or self.sign == 0:
            return SignedSqrt.zero()
        sign = self.sign if t > 0 else -self.sign
        return SignedSqrt(sign, self.square * t * t)

    def __lt__(self, other: "SignedSqrt") -> bool:
        if not isinstance(other, SignedSqrt):
            return NotImplemented
        if self.sign != other.sign:
            return self.sign < other.sign
        if self.sign > 0:
            return self.square < other.square
        if self.sign < 0:
            return self.square > other.square
        return False

    def __float__(self) -> float:
        return self.sign * math.sqrt(float(self.square))

    def __repr__(self) -> str:
        if self.sign == 0:
            return "SignedSqrt(0)"
        pre = "" if self.sign > 0 else "-"
        return f"SignedSqrt({pre}sqrt({self.square}))"


def dual_chamber(rrs: RestrictedRootSystem) -> RestrictedRootSystem:
    """The restricted root system itself, which carries its dual cone.

    The name stays because ``perfbench/workloads.py`` calls it and
    ``perfbench/tracing.py`` traces it.
    """
    return rrs


def _ray_pairings(rrs: RestrictedRootSystem, v: Weight) -> tuple[Fraction, ...]:
    """v's exact pairings with the facet rays: v is scaled to ints once, then
    one int dot product and one division per ray."""
    scale, coords = _scaled(v)
    return tuple(
        Fraction(x, s * scale)
        for x, s in zip(_int_mat_vec(rrs.ray_covectors, coords), rrs.ray_scales)
    )


NEG_INTERIOR = "neg_interior"
BOUNDARY_OR_OUTSIDE = "boundary_or_outside"


@dataclass(frozen=True)
class ConePosition:
    """Position of a vector relative to the negated cone.

    ``margin`` is min over facet rays of -(v, X)/|X|: positive exactly on the
    interior of the negated cone (when the cone is full-dimensional), zero on
    its boundary, negative outside.
    """

    kind: str
    margin: SignedSqrt
    ray_pairings: tuple[Fraction, ...]

    @property
    def neg_interior(self) -> bool:
        return self.kind == NEG_INTERIOR


def cone_position(chamber: RestrictedRootSystem, v: Weight) -> ConePosition:
    """Locate v relative to -(positive restricted cone), with exact margin."""
    if v.rank != chamber.root_system.rank:
        raise RankMismatch("vector rank does not match the root system")
    pairings = _ray_pairings(chamber, v)
    margin = min(
        (SignedSqrt.of_ratio(-p, n) for p, n in zip(pairings, chamber.ray_norms)),
        default=SignedSqrt.zero(),
    )
    interior = chamber.fulldim and all(p < 0 for p in pairings)
    return ConePosition(
        kind=NEG_INTERIOR if interior else BOUNDARY_OR_OUTSIDE,
        margin=margin,
        ray_pairings=pairings,
    )


def monoid_member(rrs: RestrictedRootSystem, xi: Weight) -> bool:
    """Is xi a nonnegative-integer combination of positive restricted roots?

    Every positive restricted root is itself a nonnegative-integer
    combination of the simple restricted roots (true also in the non-reduced
    case), so membership is equivalent to the coordinates of xi in the
    simple restricted basis being nonnegative integers.  The facet rays are
    the dual basis, so those coordinates are xi's ray pairings; rebuilding xi
    from them rules out a vector outside the span.
    """
    simple = rrs.simple_restricted
    if xi.is_zero():
        return True
    if not simple:
        return False
    coords = _ray_pairings(rrs, xi)
    rebuilt = Weight.zero(rrs.root_system.rank)
    for c, s in zip(coords, simple):
        rebuilt = rebuilt + s.scale(c)
    if rebuilt != xi:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coords)


def dominates(rrs: RestrictedRootSystem, a: Weight, b: Weight) -> bool:
    """a is at least b in the monoid order: a - b lies in the monoid."""
    return monoid_member(rrs, a - b)


def leading_exponents(
    rrs: RestrictedRootSystem, values: frozenset[Weight] | set[Weight]
) -> frozenset[Weight]:
    """The maximal elements of a finite set under the monoid order."""
    items = list(values)
    keep = []
    for v in items:
        if any(w != v and dominates(rrs, w, v) for w in items):
            continue
        keep.append(v)
    return frozenset(keep)


@dataclass(frozen=True)
class FormalDSDatum:
    """Formal discrete-series datum: a character weight and exponent set.

    The exponents model leading asymptotic exponents on the split part; the
    intended invariant (checked by validate_datum, not by construction) is
    that each one is the restriction of some element of the weight's orbit.
    """

    weight: Weight
    exponents: frozenset[Weight]
    label: str = ""


def sorted_exponents(
    exponents: FormalDSDatum | Iterable[Weight],
) -> tuple[Weight, ...]:
    """Exponent set in a deterministic (coordinate-lexicographic) order."""
    items = (
        exponents.exponents if isinstance(exponents, FormalDSDatum) else exponents
    )
    return tuple(sorted(items, key=lambda w: w.coords))


def orbit_restrictions(
    rs: RootSystem, inv: CartanInvolution, lam: Weight, cap: int = DEFAULT_CAP
) -> frozenset[Weight]:
    """All restrictions of the weight's Weyl orbit to the split part."""
    return frozenset(inv.restrict(nu) for nu in weyl_orbit(rs, lam, cap))


def admissible_exponents(
    rs: RootSystem,
    inv: CartanInvolution,
    chamber: RestrictedRootSystem,
    lam: Weight,
    cap: int = DEFAULT_CAP,
) -> frozenset[Weight]:
    """Orbit restrictions in the open negative cone: lam's admissible exponents."""
    return frozenset(
        e
        for e in orbit_restrictions(rs, inv, lam, cap)
        if cone_position(chamber, e).neg_interior
    )


def validate_datum(
    rs: RootSystem,
    inv: CartanInvolution,
    datum: FormalDSDatum,
    cap: int = DEFAULT_CAP,
) -> None:
    """Check the orbit-restriction invariant; raise InvalidDatum on failure."""
    if datum.weight.rank != rs.rank:
        raise InvalidDatum("weight rank does not match the root system")
    allowed = orbit_restrictions(rs, inv, datum.weight, cap)
    for e in sorted_exponents(datum):
        if e.rank != rs.rank:
            raise InvalidDatum("exponent rank does not match the root system")
        if e not in allowed:
            raise InvalidDatum(
                "exponent is not the restriction of any orbit element"
            )


@dataclass(frozen=True)
class L2Report:
    """Outcome of the square-integrability test on a datum's exponents."""

    passed: bool
    positions: tuple[tuple[Weight, ConePosition], ...]

    @property
    def min_margin(self) -> SignedSqrt | None:
        if not self.positions:
            return None
        return min(pos.margin for _, pos in self.positions)


def l2_check(chamber: RestrictedRootSystem, datum: FormalDSDatum) -> L2Report:
    """True iff every exponent lies in the negative open cone interior."""
    positions = tuple(
        (e, cone_position(chamber, e)) for e in sorted_exponents(datum)
    )
    return L2Report(
        passed=all(pos.neg_interior for _, pos in positions),
        positions=positions,
    )


def orbit_plus(
    rs: RootSystem,
    inv: CartanInvolution,
    lam: Weight,
    cap: int = DEFAULT_CAP,
    chamber: RestrictedRootSystem | None = None,
) -> frozenset[Weight]:
    """Orbit elements whose restriction lies in the negative cone interior."""
    if chamber is None:
        chamber = restricted_roots(rs, inv)
    return frozenset(
        nu
        for nu in weyl_orbit(rs, lam, cap)
        if cone_position(chamber, inv.restrict(nu)).neg_interior
    )
