"""Formal exponent calculus on the split part: cones, margins, admissible sets.

Exponents of matrix-coefficient asymptotics live in the dual of the split
part.  The square-integrability condition places them in the negative open
interior of the cone spanned by the positive restricted roots.  The
restricted root system carries that cone's dual description (facet rays with
integer covectors, built once by ``restricted_roots``); this module computes
exact positions and margins relative to it, and the admissible part of a
Weyl orbit: the points whose restriction lies in the open negative cone.

Positions are decided on ints.  A vector's int numerators have one int
product p with each ray covector c; it is interior when there is a ray (the
rays span the split part, ``RestrictedRootSystem``) and every product is
negative, and its margin, the least -p/sqrt(n) over the rays, n = c F^-1 c,
is found by sign and then by p^2 n' against p'^2 n, with one ``SignedSqrt``
(a sign and an exact rational square, never floating point) built for it.
A ray covector c has c.(v - theta v) = 2 c.v, so an orbit point v restricts
into the open cone exactly when there is a ray and every c.v < 0.  The
admissible points are walked up from the orbit's antidominant point
(``_walk``), without closing the orbit; the products rise along the walk,
so a walk bounded by a datum's exponents still reaches each of them that is
admissible.  A datum's exponents obey one rule: each is admissible.
``strong_regularization`` checks it on the walked int set (``_key``), and
``translate_line`` on ``admissible_exponents``: W acts
linearly and the open cone is closed under positive scaling, so the
admissible set of f lam, f a positive int, is f times lam's, and one walk
serves the whole line.  A ray's largest pairing over an orbit's
restrictions (``_orbit_maxima``) closes no orbit either: the largest (wx, y)
over W for dominant x, y is (x, y) (Humphreys, *Introduction to Lie Algebras
and Representation Theory*, 13.2), one chase and one product per ray.
"""

from __future__ import annotations

import math
import operator
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

    ``sign`` is an int, not a bool, and ``square`` an int or a Fraction
    (TypeError otherwise).  Total order: by sign * square, which is m |m| for
    the value m, and m -> m |m| is strictly increasing.  It is decided on
    ints: by sign, then, for equal signs s, by s a b' against s a' b for the
    squares a/b and a'/b' in lowest terms.  Scaling by a rational multiplies
    the square by the square of the scalar, so linear margin laws hold exactly.
    """

    sign: int
    square: Fraction

    def __post_init__(self) -> None:
        sign, square = self.sign, self.square
        if type(sign) is not int or type(square) is bool or not isinstance(square, (Fraction, int)):
            raise TypeError(f"sign and square are an int and a rational, not {sign!r}, {square!r}")
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if square.numerator < 0:
            raise ValueError("square must be nonnegative")
        if (sign == 0) != (square.numerator == 0):
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
        s, a, b = self.sign, self.square, other.square
        return (s, s * a.numerator * b.denominator) < (other.sign, s * b.numerator * a.denominator)

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


@dataclass(frozen=True)
class ConePosition:
    """Position of a vector relative to the negated cone.

    ``margin`` is min over facet rays of -(v, X)/|X|: positive exactly on the
    interior of the negated cone, zero on its boundary, negative outside;
    ``neg_interior`` is whether the margin is positive.
    """

    neg_interior: bool
    margin: SignedSqrt


def _position(
    chamber: RestrictedRootSystem, products: Sequence[int], scale: int
) -> tuple[bool, SignedSqrt]:
    """Whether the vector with these int ray products at scale S is interior
    (there is a ray and every product is negative), and its margin.

    Ray j's margin is -x/(S sqrt(n)), n its ``ray_norms`` entry.  The least
    has the sign of -max x (zero without rays) and the largest x^2/n where
    x > 0, else the smallest; rays compare by x^2 n' against x'^2 n on ints,
    and one SignedSqrt is built, for the ray chosen.
    """
    top = max(products, default=0)
    interior = top < 0
    if not top:
        return interior, SignedSqrt.zero()
    least = None
    for x, norm in zip(products, chamber.ray_norms):
        if top < 0 or x > 0:
            a, b = x * x * norm.denominator, norm.numerator  # x^2 / n
            if least is None or (a * least[1] - least[0] * b) * top > 0:
                least = a, b
    return interior, SignedSqrt(-1 if top > 0 else 1, Fraction(least[0], least[1] * scale * scale))


def cone_position(chamber: RestrictedRootSystem, v: Weight) -> ConePosition:
    """Locate v relative to -(positive restricted cone), with exact margin."""
    if v.rank != chamber.root_system.rank:
        raise RankMismatch("vector rank does not match the root system")
    return ConePosition(*_position(chamber, _int_mat_vec(chamber.ray_covectors, v.nums), v.den))


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


Admissible = tuple[int, dict[tuple[int, ...], list[int]]]
Maxima = tuple[Sequence[int], int]
Walked = tuple[tuple[int, ...], tuple[int, ...], list[int]]


def _walk(chamber: RestrictedRootSystem, lam: Weight, cap: int, bound=None) -> list[Walked]:
    """The points u of lam's orbit times its denominator, in the coordinates
    of theta's chamber transform (the orbit point is v = chamber u), whose
    restriction lies in the open negative cone, each with its doubled
    restriction d = v - theta(v) = ``chamber_restriction`` u and its ray
    products p = c' u = c v: there is a ray and every p < 0, for c' the ray's
    ``chamber_covectors`` row, whose entries are >= 0.  The ray covector c is
    a positive multiple of F X with theta X = -X, so c d = 2 p.

    Reflecting u at a node i where q = (A u)_i < 0 raises each product by
    -q c'[i] >= 0 and moves d by -q times column i of ``chamber_restriction``,
    so the products are least at the antidominant point -dom(-lam), and every
    admissible point is reached from it by such steps through admissible
    points: its chase down, reversed (Humphreys, 10.3 and 13.2).  A ``bound``,
    a sequence of per-ray maxima of c d, stops every step that would raise
    some 2 p above its ray's entry, but the start is always kept.  Since the
    products rise along every path, the points under the bound are still all
    reached, through points under it: with a datum's exponents' maxima as the
    bound, each exponent that is admissible is walked.  An orbit past ``cap``
    is refused from one chase first.
    """
    rs = chamber.root_system
    coords = _nums_on(rs, -lam)
    fws = _chase_within_cap(rs, coords, cap)
    start = tuple(-x for x in coords)
    products = _int_mat_vec(chamber.chamber_covectors, start)
    if max(products, default=0) >= 0:
        return []
    ceiling = [-1] * len(products) if bound is None else [min(b // 2, -1) for b in bound]
    covector_columns = tuple(zip(*chamber.chamber_covectors))
    restriction_columns = tuple(zip(*chamber.chamber_restriction))
    first = start, tuple(_int_mat_vec(chamber.chamber_restriction, start)), products
    walked, seen = [first], {start}
    stack = [(first, [-f for f in fws])]
    while stack:
        (u, d, products), pairings = stack.pop()
        for i, q in enumerate(pairings):
            if q >= 0:
                continue
            raised = [x - q * c for x, c in zip(products, covector_columns[i])]
            v = u[:i] + (u[i] - q,) + u[i + 1 :]
            if any(map(operator.gt, raised, ceiling)) or v in seen:
                continue
            seen.add(v)
            point = v, tuple([x - q * c for x, c in zip(d, restriction_columns[i])]), raised
            walked.append(point)
            # s_i subtracts q alpha_i, so pairing j drops by A[j][i] q
            moved = list(pairings)
            for j, a_ji in rs._neighbours[i]:
                moved[j] -= a_ji * q
            stack.append((point, moved))
    return walked


def _admissible(
    rs: RootSystem, inv: CartanInvolution, chamber: RestrictedRootSystem, lam: Weight, cap: int,
    bound: Sequence[int] | None = None,
) -> Admissible:
    """2s for lam's denominator s, and the distinct doubled restrictions d of
    s times lam's orbit in the open negative cone, as dict keys in the order
    walked (``_walk``, under its ``bound``), each mapped to its ray products
    c d / 2: lam's admissible exponents are d / 2s."""
    _require_same_chamber(rs, inv, chamber)
    return 2 * lam.den, {d: p for _, d, p in _walk(chamber, lam, cap, bound)}


def _key(scale: int, e: Weight) -> tuple[int, ...] | None:
    """e times the scale, the int tuple d with e = d / scale, or None when
    that is not integral."""
    q, r = divmod(scale, e.den)
    return None if r else tuple(x * q for x in e.nums)


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
    points = (u for u, _, _ in _walk(chamber, lam, cap))
    return frozenset(_weight(_int_mat_vec(transform, u), lam.den) for u in points)
