"""Formal exponent calculus on the split part: cones, margins, admissible sets.

Exponents of matrix-coefficient asymptotics live in the dual of the split
part.  The square-integrability condition places them in the negative open
interior of the cone spanned by the positive restricted roots.  The
restricted root system carries that cone's dual description (facet rays with
integer covectors, built once by ``restricted_roots``); this module computes
exact positions and margins relative to it, and the admissible part of a
Weyl orbit: the points whose restriction lies in the open negative cone.

Positions are decided on ints.  A vector's int numerators have one int
product with each ray covector; it is interior when the cone is
full-dimensional and every product is negative, and its margin, the least
-p/|X| over the rays, is found by sign and then by p^2 n' against p'^2 n,
with one ``SignedSqrt`` (a sign and an exact rational square, never floating
point) built for it.  A ray covector c has c.(v - theta v) = 2 c.v, so an
orbit point v restricts into the open cone exactly when every c.v < 0.  The
admissible points are walked up from the orbit's antidominant point
(``_walk``), without closing the orbit.  A datum's exponents obey one rule:
each is admissible.  ``strong_regularization`` checks it on the walked int set
(``_key``), and ``translate_line`` on ``admissible_exponents``: W acts
linearly and the open cone is closed under positive scaling, so the
admissible set of f lam, f a positive int, is f times lam's, and one walk
serves the whole line.  A ray's largest pairing over an orbit's
restrictions (``_orbit_maxima``) closes no orbit either: the largest (wx, y)
over W for dominant x, y is (x, y) (Humphreys, *Introduction to Lie Algebras
and Representation Theory*, 13.2), one chase and one product per ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence

from . import linalg
from .errors import PreconditionFailed, RankMismatch
from .realform import (
    CartanInvolution,
    RestrictedRootSystem,
    _require_same_root_system,
    restricted_roots,
)
from .rootdata import (
    DEFAULT_CAP,
    RootSystem,
    Weight,
    _chase,
    _chase_within_cap,
    _check_cap,
    _int_mat_vec,
    _nums_on,
    _weight,
)


def _require_same_chamber(
    rs: RootSystem, inv: CartanInvolution, chamber: RestrictedRootSystem
) -> None:
    """PreconditionFailed unless inv was validated on rs's type and the chamber
    built on that type from inv's theta."""
    _require_same_root_system(rs, inv)
    if chamber.root_system.cartan_type != rs.cartan_type or chamber.involution.theta != inv.theta:
        raise PreconditionFailed(
            "the chamber was validated on another root system or involution"
        )


@total_ordering
@dataclass(frozen=True)
class SignedSqrt:
    """Exact value sign * sqrt(square) with rational square.

    Total order: by sign * square, which is m |m| for the value m, and
    m -> m |m| is strictly increasing.  Scaling by a rational multiplies the
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

    def scale(self, t) -> "SignedSqrt":
        t = linalg.frac(t)
        if t == 0 or self.sign == 0:
            return SignedSqrt.zero()
        sign = self.sign if t > 0 else -self.sign
        return SignedSqrt(sign, self.square * t * t)

    def __lt__(self, other: "SignedSqrt") -> bool:
        if not isinstance(other, SignedSqrt):
            return NotImplemented
        return self.sign * self.square < other.sign * other.square

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


def _ray_products(rrs: RestrictedRootSystem, v: Weight) -> tuple[list[int], int]:
    """The int covector products x of v's numerators, and v's denominator S:
    v's pairing with ray j is x[j] / (ray_scales[j] S)."""
    if v.rank != rrs.root_system.rank:
        raise RankMismatch("vector rank does not match the root system")
    return _int_mat_vec(rrs.ray_covectors, v.nums), v.den


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

    @property
    def neg_interior(self) -> bool:
        return self.kind == NEG_INTERIOR


def _position(
    chamber: RestrictedRootSystem, products: Sequence[int], scale: int
) -> tuple[bool, SignedSqrt]:
    """Whether the vector with these int ray products at scale S is interior
    (the cone full-dimensional, every product negative), and its margin.

    Ray j's margin is -x/(S sqrt(n)), n = s^2 |X|^2 with s the ray scale.  The
    least has the sign of -max x (zero without rays) and the largest x^2/n
    where x > 0, else the smallest; rays compare by x^2 n' against x'^2 n on
    ints, and one SignedSqrt is built, for the ray chosen.
    """
    interior = chamber.fulldim and all(x < 0 for x in products)
    top = max(products, default=0)
    if not top:
        return interior, SignedSqrt.zero()
    least = None
    for x, s, norm in zip(products, chamber.ray_scales, chamber.ray_norms):
        if top < 0 or x > 0:
            a, b = x * x * norm.denominator, s * s * norm.numerator  # x^2 / n
            if least is None or (a * least[1] - least[0] * b) * top > 0:
                least = a, b
    return interior, SignedSqrt(-1 if top > 0 else 1, Fraction(least[0], least[1] * scale * scale))


def cone_position(chamber: RestrictedRootSystem, v: Weight) -> ConePosition:
    """Locate v relative to -(positive restricted cone), with exact margin."""
    products, scale = _ray_products(chamber, v)
    interior, margin = _position(chamber, products, scale)
    return ConePosition(kind=NEG_INTERIOR if interior else BOUNDARY_OR_OUTSIDE, margin=margin)


@dataclass(frozen=True)
class FormalDSDatum:
    """Formal discrete-series datum: a character weight and exponent set.

    The exponents model leading asymptotic exponents on the split part.  The
    one invariant, checked by ``strong_regularization`` and
    ``translate_line`` and not by construction, is that each exponent is
    admissible: an orbit element's restriction that lies in the open
    negative cone.
    """

    weight: Weight
    exponents: frozenset[Weight]
    label: str = ""


def sorted_exponents(
    exponents: FormalDSDatum | Iterable[Weight],
) -> tuple[Weight, ...]:
    """Exponent set, or any set of weights, in coordinate-lexicographic order:
    compared on ints, each weight's numerators at the set's common
    denominator."""
    items = tuple(
        exponents.exponents if isinstance(exponents, FormalDSDatum) else exponents
    )
    den = math.lcm(*(w.den for w in items))
    return tuple(sorted(items, key=lambda w: [x * (den // w.den) for x in w.nums]))


Admissible = tuple[int, dict[tuple[int, ...], None]]
Maxima = tuple[Sequence[int], int]


def _walk(chamber: RestrictedRootSystem, lam: Weight, cap: int) -> list[tuple[int, ...]]:
    """The points u of lam's orbit times its denominator, in the coordinates
    of theta's chamber transform (the orbit point is v = chamber u), whose
    restriction lies in the open negative cone: every c' u = c v < 0, for c'
    the ray's ``chamber_covectors`` row, whose entries are >= 0.

    Reflecting u at a node i where q = (A u)_i < 0 raises each product by
    -q c'[i] >= 0, so the products are least at the antidominant point
    -dom(-lam), and every admissible point is reached from it by such steps
    through admissible points: its chase down, reversed (Humphreys, 10.3 and
    13.2).  An orbit past ``cap`` is refused from one chase first.
    """
    rs = chamber.root_system
    coords = _nums_on(rs, -lam)
    fws = _chase_within_cap(rs, coords, cap)
    if not chamber.fulldim:
        return []
    start = tuple(-x for x in coords)
    products = _int_mat_vec(chamber.chamber_covectors, start)
    if max(products) >= 0:
        return []
    columns = tuple(zip(*chamber.chamber_covectors))
    walked, seen = [start], {start}
    stack = [(start, [-f for f in fws], products)]
    while stack:
        u, pairings, products = stack.pop()
        for i, q in enumerate(pairings):
            if q >= 0:
                continue
            raised = [x - q * c for x, c in zip(products, columns[i])]
            v = u[:i] + (u[i] - q,) + u[i + 1 :]
            if max(raised) >= 0 or v in seen:
                continue
            seen.add(v)
            walked.append(v)
            # s_i subtracts q alpha_i, so pairing j drops by A[j][i] q
            moved = list(pairings)
            for j, a_ji in rs._neighbours[i]:
                moved[j] -= a_ji * q
            stack.append((v, moved, raised))
    return walked


def _admissible(
    rs: RootSystem, inv: CartanInvolution, chamber: RestrictedRootSystem, lam: Weight, cap: int
) -> Admissible:
    """2s for lam's denominator s, and the distinct doubled restrictions d of
    s times lam's orbit in the open negative cone, as dict keys in the order
    walked (``_walk``): lam's admissible exponents are d / 2s."""
    _require_same_chamber(rs, inv, chamber)
    restriction = chamber.chamber_restriction
    return 2 * lam.den, dict.fromkeys(
        tuple(_int_mat_vec(restriction, u)) for u in _walk(chamber, lam, cap)
    )


def _key(admissible: Admissible, e: Weight) -> tuple[int, ...] | None:
    """e times the scale, the int tuple d with e = d / scale, if d is a walked key; else None."""
    scale, doubled = admissible
    q, r = divmod(scale, e.den)
    d = tuple(x * q for x in e.nums)
    return d if not r and d in doubled else None


def _orbit_maxima(chamber: RestrictedRootSystem, coords: list[int], cap: int) -> list[int]:
    """Each ray's largest product c.u over the orbit restrictions u of the int
    coordinates, at their scale: the ray's dominant covector times the
    coordinates chased in place.  CapExceeded as in ``weyl_orbit``."""
    _chase_within_cap(chamber.root_system, coords, cap)
    return _int_mat_vec(chamber.dominant_covectors, coords)


def antidominant_restriction(
    rs: RootSystem, inv: CartanInvolution, lam: Weight
) -> Weight:
    """Restriction of chamber (-dom(-lam)), the orbit's antidominant point in
    theta's chamber and the start of ``_walk``: it is admissible exactly when
    lam has an admissible exponent, as the ray products are least there.  This
    costs one chamber chase, on ints."""
    _require_same_root_system(rs, inv)
    coords = _nums_on(rs, -lam)
    _chase(rs, coords)
    return inv.restrict(_weight(_int_mat_vec(inv.chamber.matrix, coords), -lam.den))


def admissible_exponents(
    rs: RootSystem,
    inv: CartanInvolution,
    chamber: RestrictedRootSystem,
    lam: Weight,
    cap: int = DEFAULT_CAP,
) -> frozenset[Weight]:
    """Orbit restrictions in the open negative cone: lam's admissible exponents,
    one Weight per admissible int restriction (``_admissible``)."""
    _check_cap(cap)
    scale, doubled = _admissible(rs, inv, chamber, lam, cap)
    return frozenset(_weight(d, scale) for d in doubled)


def orbit_plus(
    rs: RootSystem,
    inv: CartanInvolution,
    lam: Weight,
    cap: int = DEFAULT_CAP,
    chamber: RestrictedRootSystem | None = None,
) -> frozenset[Weight]:
    """Orbit elements whose restriction lies in the negative cone interior:
    chamber u for each point u walked (``_walk``)."""
    _check_cap(cap)
    if chamber is None:
        chamber = restricted_roots(rs, inv)
    _require_same_chamber(rs, inv, chamber)
    transform = inv.chamber.matrix
    return frozenset(_weight(_int_mat_vec(transform, u), lam.den) for u in _walk(chamber, lam, cap))
