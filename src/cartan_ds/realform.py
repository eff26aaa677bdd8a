"""Cartan involutions on a root datum and their restricted root systems.

An involution theta acts on the weight space of a root system, preserving the
invariant pairing and permuting the roots.  Its (-1)-eigenspace plays the role
of the dual split part: restriction of a weight is (lam - theta(lam)) / 2, and
the nonzero restrictions of roots form the (possibly non-reduced) restricted
root system, each with a multiplicity equal to its number of preimages.
Roots and theta are integral, so the doubled restriction alpha - theta(alpha)
is an int vector: the restricted root system, and the dual description of its
positive cone, are built once from those.

A positive system of the ambient roots is *compatible* when its nonzero
restrictions form a positive system of the restricted roots.  The validator
keeps the default positive system when it is already compatible and otherwise
re-chooses one deterministically, recording the Weyl chamber transform that
carries the default system onto the chosen one.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import linalg
from .errors import (
    ConsistencyError,
    NotInvolution,
    NotIsometric,
    NotRootPreserving,
    PreconditionFailed,
    RankMismatch,
)
from .rootdata import (
    DEFAULT_CAP,
    IntMat,
    RootSystem,
    Weight,
    WeylElement,
    _int_mat_vec,
    _scaled,
    apply,
    apply_matrix,
    closure,
    dominant_representative,
    enumerate_weyl,
    word_element,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True, eq=False)
class CartanInvolution:
    """Validated involution data on a fixed root system.

    ``positive_roots`` is the chosen compatible positive system and ``chamber``
    the Weyl element carrying the default positive system onto it (identity
    when the default was already compatible).
    """

    root_system: RootSystem
    theta: IntMat
    split_basis: tuple[Weight, ...]
    compact_basis: tuple[Weight, ...]
    positive_roots: frozenset[Weight]
    chamber: WeylElement
    default_compatible: bool

    @property
    def split_rank(self) -> int:
        return len(self.split_basis)

    def act(self, lam: Weight) -> Weight:
        """theta applied to a weight."""
        return apply_matrix(self.theta, lam)

    def restrict(self, lam: Weight) -> Weight:
        """Projection onto the (-1)-eigenspace: (lam - theta(lam)) / 2."""
        return _restrict(self.theta, lam)

    def from_split_coords(self, values) -> Weight:
        if isinstance(values, Weight):
            values = values.coords
        vals = [linalg.frac(v) for v in values]
        if len(vals) != self.split_rank:
            raise RankMismatch("split coordinate length mismatch")
        out = Weight.zero(len(self.theta))
        for c, b in zip(vals, self.split_basis):
            out = out + b.scale(c)
        return out


def _restrict(theta: IntMat, lam: Weight) -> Weight:
    return (lam - apply_matrix(theta, lam)).scale(HALF)


def _eigenbasis(theta: IntMat, sign: int) -> tuple[Weight, ...]:
    n = len(theta)
    shifted = tuple(
        tuple(Fraction(theta[i][j]) - (sign if i == j else 0) for j in range(n))
        for i in range(n)
    )
    return tuple(Weight(v) for v in linalg.nullspace(shifted))


def _regular_combination(rs: RootSystem, basis: tuple[Weight, ...], targets) -> Weight:
    """Deterministic vector in span(basis) pairing nonzero with every target."""
    if not targets:
        return Weight.zero(rs.rank) if not basis else basis[0].scale(0)
    t = 1
    while True:
        v = Weight.zero(rs.rank)
        for i, b in enumerate(basis):
            v = v + b.scale(Fraction(t) ** i)
        if all(rs.pairing(v, x) != 0 for x in targets):
            return v
        t += 1


def validate_involution(rs: RootSystem, theta_matrix) -> CartanInvolution:
    """Check a candidate involution and assemble its CartanInvolution data.

    Raises NotInvolution, NotIsometric or NotRootPreserving in that order of
    testing.  The compatible positive system is the default one when possible,
    otherwise it is re-chosen deterministically from a regular split vector.
    """
    theta_rows = linalg.matrix(theta_matrix)
    n = rs.rank
    if len(theta_rows) != n or any(len(r) != n for r in theta_rows):
        raise RankMismatch("involution matrix size does not match rank")
    if linalg.mat_mul(theta_rows, theta_rows) != linalg.identity(n):
        raise NotInvolution("matrix does not square to the identity")
    form = rs.form
    lhs = linalg.mat_mul(linalg.mat_mul(linalg.transpose(theta_rows), form), theta_rows)
    if lhs != form:
        raise NotIsometric("matrix does not preserve the invariant pairing")
    if not linalg.is_integral(theta_rows):
        raise NotRootPreserving("matrix does not preserve the root lattice")
    theta = linalg.as_int_matrix(theta_rows)
    for root in rs.all_roots:
        if apply_matrix(theta, root) not in rs.all_roots:
            raise NotRootPreserving("matrix does not permute the roots")

    split_basis = _eigenbasis(theta, -1)
    compact_basis = _eigenbasis(theta, +1)
    positive, chamber, default_ok = _compatible_positive_system(
        rs, theta, split_basis, compact_basis
    )
    return CartanInvolution(
        root_system=rs,
        theta=theta,
        split_basis=split_basis,
        compact_basis=compact_basis,
        positive_roots=positive,
        chamber=chamber,
        default_compatible=default_ok,
    )


def _compatible_positive_system(
    rs: RootSystem,
    theta: IntMat,
    split_basis: tuple[Weight, ...],
    compact_basis: tuple[Weight, ...],
) -> tuple[frozenset[Weight], WeylElement, bool]:
    restrictions = {root: _restrict(theta, root) for root in rs.all_roots}
    default_restr = {
        restrictions[r] for r in rs.positive_roots if not restrictions[r].is_zero()
    }
    if not any(-v in default_restr for v in default_restr):
        return frozenset(rs.positive_roots), rs.identity, True

    nonzero = [v for v in set(restrictions.values()) if not v.is_zero()]
    fixed = [r for r in rs.all_roots if restrictions[r].is_zero()]
    lam_split = _regular_combination(rs, split_basis, nonzero)
    lam_compact = (
        _regular_combination(rs, compact_basis, fixed)
        if fixed
        else Weight.zero(rs.rank)
    )
    # scale the split part until it dominates the compact part on every root
    min_split = min(
        abs(rs.pairing(restrictions[r], lam_split))
        for r in rs.all_roots
        if not restrictions[r].is_zero()
    )
    max_compact = max(
        (abs(rs.pairing(r, lam_compact)) for r in rs.all_roots), default=Fraction(0)
    )
    scale = max_compact / min_split + 1
    regular = lam_split.scale(scale) + lam_compact
    positive = frozenset(r for r in rs.all_roots if rs.pairing(r, regular) > 0)
    if len(positive) != len(rs.positive_roots):
        raise NotRootPreserving("failed to choose a compatible positive system")
    _, to_dominant = dominant_representative(rs, regular)
    chamber = word_element(rs, to_dominant.word[::-1])
    if {apply(chamber, r) for r in rs.positive_roots} != positive:
        raise NotRootPreserving("chamber transform does not match positive system")
    return positive, chamber, False


@dataclass(frozen=True, eq=False)
class RestrictedRootSystem:
    """Restrictions of the ambient roots to the dual split part, with the dual
    description of their positive cone.

    Restricted roots are stored as ambient vectors lying in the
    (-1)-eigenspace.  ``positive_restricted`` is induced by the involution's
    compatible positive system; ``vanishing_roots`` are the ambient roots that
    restrict to zero; ``indivisible`` is the reduced subsystem of restricted
    roots whose half is not itself a restricted root.

    ``facet_rays`` is the basis dual to the simple restricted roots inside
    their span: a vector lies in the positive restricted cone iff it pairs
    nonnegatively with every ray.  Ray j has the integer covector
    ``ray_covectors[j]`` = c and scale ``ray_scales[j]`` = s, with
    (v, ray) = c.v / s, and the squared length ``ray_norms[j]``.
    ``fulldim`` records whether the restricted roots span the whole split
    part; when they do not, the cone has empty interior there and no vector
    counts as negative-interior.
    """

    root_system: RootSystem
    involution: CartanInvolution
    restricted_roots: frozenset[Weight]
    multiplicity: Mapping[Weight, int]
    positive_restricted: frozenset[Weight]
    vanishing_roots: frozenset[Weight]
    rho_restricted: Weight
    simple_restricted: tuple[Weight, ...]
    indivisible: frozenset[Weight]
    facet_rays: tuple[Weight, ...]
    ray_covectors: IntMat
    ray_scales: tuple[int, ...]
    ray_norms: tuple[Fraction, ...]
    fulldim: bool

    @property
    def split_rank(self) -> int:
        return self.involution.split_rank

    def pairing(self, x: Weight, y: Weight) -> Fraction:
        return self.root_system.pairing(x, y)


def restricted_roots(rs: RootSystem, inv: CartanInvolution) -> RestrictedRootSystem:
    """Compute the restricted root system, its multiplicities and dual cone.

    Everything is found on the doubled restrictions alpha - theta(alpha),
    which are int vectors, and one Weight is made per distinct restricted
    root at the end.  Raises ConsistencyError when the simple restricted roots
    are not linearly independent or a positive restricted root pairs
    negatively with a facet ray.
    """
    zero = (0,) * rs.rank
    doubled: dict[Weight, tuple[int, ...]] = {}
    for root in rs.all_roots:
        a = [c.numerator for c in root.coords]  # roots are integral
        doubled[root] = tuple(map(operator.sub, a, _int_mat_vec(inv.theta, a)))
    mult = Counter(d for d in doubled.values() if d != zero)
    positive = {doubled[r] for r in inv.positive_roots} - {zero}
    simple = sorted(
        d
        for d in positive
        if not any(tuple(map(operator.sub, d, e)) in positive for e in positive)
    )
    two_rho = [sum(mult[d] * d[i] for d in positive) for i in range(rs.rank)]

    # the rays are the basis dual to the simple restricted roots d / 2, whose
    # pairings are quarters of int pairings
    form = linalg.as_int_matrix(rs.form)
    gram = tuple(
        tuple(Fraction(x, 4) for x in _int_mat_vec(simple, _int_mat_vec(form, d)))
        for d in simple
    )
    try:
        gram_inv = linalg.inverse(gram)
    except ValueError as exc:
        raise ConsistencyError(
            "simple restricted roots are not linearly independent"
        ) from exc
    r = len(simple)
    rays = tuple(
        Weight(tuple(
            sum(simple[k][i] * gram_inv[k][j] for k in range(r)) / 2
            for i in range(rs.rank)
        ))
        for j in range(r)
    )
    scaled = [_scaled(apply_matrix(form, ray)) for ray in rays]
    covectors = tuple(tuple(c) for _, c in scaled)
    if any(x < 0 for d in positive for x in _int_mat_vec(covectors, d)):
        raise ConsistencyError(
            "dual description disagrees with a positive restricted root"
        )

    weights = {d: Weight(tuple(Fraction(x, 2) for x in d)) for d in mult}
    return RestrictedRootSystem(
        root_system=rs,
        involution=inv,
        restricted_roots=frozenset(weights.values()),
        multiplicity={weights[d]: m for d, m in mult.items()},
        positive_restricted=frozenset(weights[d] for d in positive),
        vanishing_roots=frozenset(r for r, d in doubled.items() if d == zero),
        rho_restricted=Weight(tuple(Fraction(x, 4) for x in two_rho)),
        simple_restricted=tuple(weights[d] for d in simple),
        indivisible=frozenset(
            weights[d]
            for d in mult
            if any(x % 2 for x in d) or tuple(x // 2 for x in d) not in mult
        ),
        facet_rays=rays,
        ray_covectors=covectors,
        ray_scales=tuple(scale for scale, _ in scaled),
        # (ray_j, ray_j) = sum_k gram_inv[k][j] (simple_k, ray_j) = gram_inv[j][j]
        ray_norms=tuple(gram_inv[j][j] for j in range(r)),
        fulldim=inv.split_rank > 0 and r == inv.split_rank,
    )


def multiplicity_identity_holds(rrs: RestrictedRootSystem) -> bool:
    """2 * (number of positive restricted preimages) + |vanishing| = |roots|."""
    covered = 2 * sum(rrs.multiplicity[v] for v in rrs.positive_restricted)
    return covered + len(rrs.vanishing_roots) == len(rrs.root_system.all_roots)


def _component_split(rrs: RestrictedRootSystem) -> list[list[Weight]]:
    """Connected components of the simple restricted roots."""
    comps: list[list[Weight]] = []
    remaining = list(rrs.simple_restricted)
    while remaining:
        comp = [remaining.pop(0)]
        changed = True
        while changed:
            changed = False
            for v in list(remaining):
                if any(rrs.pairing(v, u) != 0 for u in comp):
                    comp.append(v)
                    remaining.remove(v)
                    changed = True
        comps.append(comp)
    return comps


def classify_restricted_type(rrs: RestrictedRootSystem) -> str:
    """Cartan-type label of the restricted system, "BC_r" when non-reduced.

    The self-dual rank-2 case is reported as "B2".  Empty restricted systems
    (compact forms) are labeled "0".
    """
    if not rrs.restricted_roots:
        return "0"
    labels = []
    for comp in _component_split(rrs):
        span_pos = [
            v
            for v in rrs.positive_restricted
            if _supported_on(rrs, v, comp)
        ]
        r = len(comp)
        doubled = any(v.scale(2) in rrs.restricted_roots for v in span_pos)
        if doubled:
            labels.append(f"BC{r}")
            continue
        count = 2 * len(span_pos)
        norms = sorted({rrs.pairing(v, v) for v in span_pos})
        ratio = norms[-1] / norms[0]
        if r == 1:
            labels.append("A1")
        elif ratio == 1:
            if count == r * (r + 1):
                labels.append(f"A{r}")
            elif count == 2 * r * (r - 1):
                labels.append(f"D{r}")
            elif (r, count) in {(6, 72), (7, 126), (8, 240)}:
                labels.append(f"E{r}")
            else:
                labels.append(f"?{r}")
        elif ratio == 2:
            if r == 4 and count == 48:
                labels.append("F4")
            elif r == 2:
                labels.append("B2")
            else:
                long_count = sum(1 for v in span_pos if rrs.pairing(v, v) == norms[-1])
                labels.append(f"C{r}" if 2 * long_count == 2 * r else f"B{r}")
        elif ratio == 3:
            labels.append("G2")
        else:
            labels.append(f"?{r}")
    return "x".join(sorted(labels))


def _supported_on(rrs: RestrictedRootSystem, v: Weight, comp: list[Weight]) -> bool:
    others = [u for u in rrs.simple_restricted if u not in comp]
    return all(rrs.pairing(v, u) == 0 for u in others) and any(
        rrs.pairing(v, u) != 0 for u in comp
    )


@dataclass(frozen=True)
class ExactSequenceReport:
    """Orders and checks for 1 -> W_vanishing -> W^theta -> W_restricted -> 1."""

    order_commutant: int
    order_vanishing: int
    order_restricted: int
    kernel_matches: bool
    image_matches: bool
    order_identity: bool

    @property
    def passed(self) -> bool:
        return self.kernel_matches and self.image_matches and self.order_identity


def _doubled(v: Weight) -> tuple[int, ...]:
    """Twice a restricted root (alpha - theta alpha) / 2, an int vector."""
    return tuple(int(2 * c) for c in v.coords)


def verify_exact_sequence(
    rs: RootSystem, inv: CartanInvolution, cap: int = DEFAULT_CAP
) -> ExactSequenceReport:
    """Check kernel, image and order identity of the restriction homomorphism.

    The theta-commutant of the Weyl group restricts to the split part; the
    kernel must be exactly the reflection group of the vanishing roots and the
    image exactly the Weyl group of the reduced restricted system.  Both act
    there by permuting the restricted roots, whose simple ones are a basis, so
    an element is the tuple of indices of its images of the simple restricted
    roots.  A Weyl group larger than ``cap`` is refused (CapExceeded) before
    any enumeration, and restricted roots that are not a root system, as for
    many theta = +-w with w in W, with PreconditionFailed.
    """
    rrs = restricted_roots(rs, inv)
    group = enumerate_weyl(rs, cap)
    theta = inv.theta
    commutant = [
        w
        for w in group
        if linalg.mat_mul(w.matrix, theta) == linalg.mat_mul(theta, w.matrix)
    ]

    # the vanishing roots are a root system, generated by its simple roots
    fixed = rrs.vanishing_roots & inv.positive_roots
    simple_fixed = [b for b in fixed if not any(b - a in fixed for a in fixed)]
    gens = [rs.reflection_in_root(b) for b in sorted(simple_fixed, key=lambda w: w.coords)]
    vanishing_group = closure(
        (rs.identity,), lambda w: (w.compose(g) for g in gens), cap, "vanishing Weyl group"
    )

    roots = sorted(rrs.restricted_roots, key=lambda w: w.coords)
    index = {_doubled(v): k for k, v in enumerate(roots)}
    doubled_roots = list(index)
    form = linalg.as_int_matrix(rs.form)

    def reflection(b: tuple[int, ...]) -> tuple[int, ...]:
        """s_beta as a permutation of the indices, beta given doubled."""
        pairings = _int_mat_vec(doubled_roots, _int_mat_vec(form, b))
        nb = pairings[index[b]]
        perm = []
        for v, pairing in zip(doubled_roots, pairings):
            # an integral Fraction hashes and compares equal to its int
            c = Fraction(2 * pairing, nb)
            image = index.get(tuple(x - c * y for x, y in zip(v, b)))
            if image is None:
                raise PreconditionFailed(
                    "the restricted roots are not a root system: a reflection"
                    " in an indivisible restricted root does not permute them"
                )
            perm.append(image)
        return tuple(perm)

    # s_beta = s_{-beta}, so the positive roots alone generate the group
    reflections = [
        reflection(_doubled(beta)) for beta in rrs.indivisible & rrs.positive_restricted
    ]
    simple = [_doubled(s) for s in rrs.simple_restricted]
    identity = tuple(index[s] for s in simple)
    restricted_group = closure(
        (identity,),
        lambda t: (tuple(p[k] for k in t) for p in reflections),
        cap,
        "restricted Weyl group",
    )
    images = {
        w: tuple(index[tuple(_int_mat_vec(w.matrix, s))] for s in simple)
        for w in commutant
    }
    kernel = {w for w, image in images.items() if image == identity}
    return ExactSequenceReport(
        order_commutant=len(commutant),
        order_vanishing=len(vanishing_group),
        order_restricted=len(restricted_group),
        kernel_matches=kernel == set(vanishing_group),
        image_matches=set(images.values()) == set(restricted_group),
        order_identity=len(commutant)
        == len(vanishing_group) * len(restricted_group),
    )
