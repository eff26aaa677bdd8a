"""Formal exponent calculus on the split part: cones, margins, orderings.

Exponents of matrix-coefficient asymptotics live in the dual of the split
part.  The square-integrability condition places them in the negative open
interior of the cone spanned by the positive restricted roots; this module
computes that cone's dual description, exact positions and margins relative
to it, the monoid partial order on exponents, and the admissible subset of a
Weyl orbit.

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
from .errors import ConsistencyError, InvalidDatum, RankMismatch
from .realform import CartanInvolution, RestrictedRootSystem
from .rootdata import DEFAULT_CAP, RootSystem, Weight, weyl_orbit


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


@dataclass(frozen=True, eq=False)
class DualChamber:
    """The cone spanned by the positive restricted roots, with its dual
    description.

    ``facet_rays`` is the basis dual to the simple restricted roots inside
    their span: a vector lies in the cone iff it pairs nonnegatively with
    every ray.  ``fulldim`` records whether the restricted roots span the
    whole split part; when they do not, the cone has empty interior there and
    no vector counts as negative-interior.
    """

    restricted: RestrictedRootSystem
    generators: tuple[Weight, ...]
    facet_rays: tuple[Weight, ...]
    fulldim: bool

    @property
    def root_system(self) -> RootSystem:
        return self.restricted.root_system


def dual_chamber(rrs: RestrictedRootSystem) -> DualChamber:
    """Build the dual description of the positive restricted cone.

    The simple restricted roots are linearly independent, so the rays solve
    the exact dual-basis equations against their Gram matrix; the builder
    cross-checks that every positive restricted root pairs nonnegatively with
    every ray (the primal and dual descriptions agree on the generators).
    """
    simple = rrs.simple_restricted
    r = len(simple)
    rays: tuple[Weight, ...] = ()
    if r:
        gram = tuple(
            tuple(rrs.pairing(simple[i], simple[j]) for j in range(r))
            for i in range(r)
        )
        try:
            gram_inv = linalg.inverse(gram)
        except ValueError as exc:
            raise ConsistencyError(
                "simple restricted roots are not linearly independent"
            ) from exc
        ray_list = []
        for j in range(r):
            ray = Weight.zero(rrs.root_system.rank)
            for k in range(r):
                ray = ray + simple[k].scale(gram_inv[k][j])
            ray_list.append(ray)
        rays = tuple(ray_list)
    fulldim = rrs.split_rank > 0 and r == rrs.split_rank
    chamber = DualChamber(
        restricted=rrs, generators=tuple(sorted(
            rrs.positive_restricted, key=lambda w: w.coords
        )), facet_rays=rays, fulldim=fulldim
    )
    for gen in chamber.generators:
        for ray in rays:
            if rrs.pairing(gen, ray) < 0:
                raise ConsistencyError(
                    "dual description disagrees with a positive restricted root"
                )
    return chamber


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


def cone_position(chamber: DualChamber, v: Weight) -> ConePosition:
    """Locate v relative to -(positive restricted cone), with exact margin."""
    rrs = chamber.restricted
    if v.rank != rrs.root_system.rank:
        raise RankMismatch("vector rank does not match the root system")
    pairings = tuple(rrs.pairing(v, ray) for ray in chamber.facet_rays)
    margin: SignedSqrt | None = None
    for p, ray in zip(pairings, chamber.facet_rays):
        value = SignedSqrt.of_ratio(-p, rrs.pairing(ray, ray))
        if margin is None or value < margin:
            margin = value
    if margin is None:
        margin = SignedSqrt.zero()
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
    simple restricted basis being nonnegative integers; those coordinates are
    unique by linear independence.
    """
    simple = rrs.simple_restricted
    if xi.is_zero():
        return True
    if not simple:
        return False
    n = rrs.root_system.rank
    cols = tuple(
        tuple(s.coords[i] for s in simple) for i in range(n)
    )
    sol = linalg.solve(cols, xi.coords)
    if sol is None:
        return False
    rebuilt = Weight.zero(n)
    for c, s in zip(sol, simple):
        rebuilt = rebuilt + s.scale(c)
    if rebuilt != xi:
        return False
    return all(c.denominator == 1 and c >= 0 for c in sol)


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
    chamber: DualChamber,
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


def l2_check(
    chamber: DualChamber | RestrictedRootSystem, datum: FormalDSDatum
) -> L2Report:
    """True iff every exponent lies in the negative open cone interior."""
    if isinstance(chamber, RestrictedRootSystem):
        chamber = dual_chamber(chamber)
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
    chamber: DualChamber | None = None,
) -> frozenset[Weight]:
    """Orbit elements whose restriction lies in the negative cone interior."""
    if chamber is None:
        from .realform import restricted_roots

        chamber = dual_chamber(restricted_roots(rs, inv))
    return frozenset(
        nu
        for nu in weyl_orbit(rs, lam, cap)
        if cone_position(chamber, inv.restrict(nu)).neg_interior
    )
