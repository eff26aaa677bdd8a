"""Cartan involutions on a root datum and their restricted root systems.

An involution theta acts on the weight space of a root system, preserving the
invariant pairing and permuting the roots.  Its (-1)-eigenspace plays the role
of the dual split part: restriction of a weight is (lam - theta(lam)) / 2, and
the nonzero restrictions of roots form the (possibly non-reduced) restricted
root system, each with a multiplicity equal to its number of preimages.

A root is an index into the root system's int table ``roots``.  Roots and
theta are integral, so the doubled restriction alpha - theta(alpha) is an int
vector, one (1 - theta) product per root.  The validator stores these in one
tuple aligned with the table, and the compatible positive system as a set of
indices; everything that restricts a root reads them: the restricted root
system and its dual cone, the restricted type and the exact-sequence check,
which also reads theta off them as a permutation of the root indices and
names each Weyl element by root indices, with no matrix.
An isometry that maps each simple root to a root permutes the roots
(Humphreys 10.3), so only theta's columns are looked up in the table.  The
exact-sequence check likewise reflects in the simple restricted roots and in
no other root of their orbit, since s_(w b) = w s_b w^-1 (Humphreys 9.2).
It refuses before it enumerates: the Weyl-order cap, that guard and the
restricted group's cap come before W is closed, and W_0, a subgroup of W,
needs no cap once |W| <= cap has passed.

A positive system of the ambient roots is *compatible* when its nonzero
restrictions form a positive system of the restricted roots.  The validator
keeps the default positive system when it is already compatible and otherwise
re-chooses one by signs on the table, recording the Weyl chamber transform
that carries the default system onto the chosen one.  Its columns are the
compatible simple roots, whose distinct nonzero restrictions are the simple
restricted roots (Araki 1962, section 2; Knapp, *Lie Groups Beyond an
Introduction*, ch. VI) and whose zero ones the simple vanishing roots.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import linalg, rootdata
from .errors import (
    CapExceeded,
    ConsistencyError,
    NotInvolution,
    NotIsometric,
    NotRootPreserving,
    ParseError,
    PreconditionFailed,
    RankMismatch,
)
from .rootdata import (
    DEFAULT_CAP,
    IntMat,
    RootSystem,
    Weight,
    WeylElement,
    _chase,
    _check_cap,
    _int_mat_mul,
    _int_mat_vec,
    _weight,
    _weyl_witness,
    apply_matrix,
    closure,
    dominant_representative,  # unused here; the benchmark's tracer test looks it up
    format_cartan_type,
    word_element,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True, eq=False)
class CartanInvolution:
    """Validated involution data on a fixed root system.

    ``positive_indices`` is the chosen compatible positive system, as indices
    into ``root_system.roots``, and ``chamber`` the Weyl element carrying the
    default positive system onto it (identity when the default was already
    compatible).
    ``doubled_restrictions[k]`` is alpha - theta(alpha), twice the restriction
    of alpha = ``root_system.roots[k]``, as an int tuple; the positive system
    and the restricted roots are read from it.
    ``weyl_witness`` is the Weyl element whose matrix is theta, found by one
    chamber chase of theta(2 rho) at validation, or None when theta is not in
    the Weyl group.
    """

    root_system: RootSystem
    theta: IntMat
    split_basis: tuple[Weight, ...]
    positive_indices: frozenset[int]
    chamber: WeylElement
    default_compatible: bool
    doubled_restrictions: IntMat
    weyl_witness: WeylElement | None

    @property
    def split_rank(self) -> int:
        return len(self.split_basis)

    def act(self, lam: Weight) -> Weight:
        """theta applied to a weight."""
        return apply_matrix(self.theta, lam)

    def restrict(self, lam: Weight) -> Weight:
        """Projection onto the (-1)-eigenspace: (lam - theta(lam)) / 2."""
        return (lam - self.act(lam)).scale(HALF)

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


def _require_same_root_system(rs: RootSystem, inv: CartanInvolution) -> None:
    """PreconditionFailed unless inv was validated on a root system of rs's type."""
    if inv.root_system.cartan_type != rs.cartan_type:
        raise PreconditionFailed(
            "the involution was validated on another root system:"
            f" {format_cartan_type(inv.root_system.cartan_type)},"
            f" not {format_cartan_type(rs.cartan_type)}"
        )


def _read_matrix(rows, rank: int, what: str) -> tuple[int, IntMat]:
    """The lcm d of a raw rank x rank matrix's denominators, and the matrix
    times d on ints (an all-int matrix is taken as it is, with d = 1); a row
    that is no list or tuple, or a non-rational entry, is a ParseError."""
    try:
        rows = tuple(rows)
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise TypeError("a matrix row must be a list or a tuple")
        ints = all(type(x) is int for row in rows for x in row)
        mat = tuple(map(tuple, rows)) if ints else linalg.matrix(rows)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {exc}") from exc
    if len(mat) != rank or any(len(row) != rank for row in mat):
        raise RankMismatch(f"{what} size does not match rank")
    if ints:
        return 1, mat
    d = math.lcm(*(x.denominator for row in mat for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in mat)


def _scaled_rows(mat: IntMat, c: int) -> IntMat:
    return tuple(tuple(c * x for x in row) for row in mat)


def _eigenbasis(theta: IntMat, sign: int) -> tuple[Weight, ...]:
    n = len(theta)
    shifted = tuple(
        tuple(theta[i][j] - (sign if i == j else 0) for j in range(n)) for i in range(n)
    )
    basis, d = linalg.int_nullspace(shifted)
    return tuple(_weight(v, d) for v in basis)


def _dot(u, v) -> int:
    return sum(map(operator.mul, u, v))


def _regular_covector(rs: RootSystem, basis: tuple[Weight, ...], targets) -> list[int]:
    """F v, taken on v's int numerators, for a deterministic v in span(basis)
    pairing nonzero with every int target: v = sum_i t^i basis_i."""
    t = 1
    while True:
        v = Weight.zero(rs.rank)
        for i, b in enumerate(basis):
            v = v + b.scale(t**i)
        covector = _int_mat_vec(rs.form, v.nums)
        if all(_dot(covector, x) for x in targets):
            return covector
        t += 1


def validate_involution(rs: RootSystem, theta_matrix) -> CartanInvolution:
    """Check a candidate involution and assemble its CartanInvolution data.

    Raises NotInvolution, NotIsometric or NotRootPreserving in that order of
    testing.  The compatible positive system is the default one when possible,
    otherwise it is re-chosen deterministically from a regular split vector.
    """
    d, theta = _read_matrix(theta_matrix, rs.rank, "involution matrix")
    # theta / d is an involution iff theta^2 = d^2 1; then d^2 theta^-1 = theta,
    # so it is an isometry, theta^T F theta = d^2 F, iff theta^T F = F theta,
    # that is iff F theta is symmetric; it is integral iff d = 1
    if _int_mat_mul(theta, theta) != _scaled_rows(rs.identity.matrix, d * d):
        raise NotInvolution("matrix does not square to the identity")
    form_theta = _int_mat_mul(rs.form, theta)
    if form_theta != tuple(zip(*form_theta)):
        raise NotIsometric("matrix does not preserve the invariant pairing")
    if d != 1:
        raise NotRootPreserving("matrix does not preserve the root lattice")
    # an isometry that maps each simple root to a root permutes the roots
    if not all(col in rs.root_index for col in zip(*theta)):
        raise NotRootPreserving("matrix does not permute the roots")
    one_minus = tuple(tuple(map(operator.sub, e, row)) for e, row in zip(rs.identity.matrix, theta))
    # the root table lists the negatives after the positives, in the same order
    half = [tuple(_int_mat_vec(one_minus, a)) for a in rs.roots[: len(rs.roots) // 2]]
    doubled = (*half, *(tuple(-x for x in d) for d in half))

    split_basis = _eigenbasis(theta, -1)
    positive, chamber, default_ok = _compatible_positive_system(rs, theta, doubled, split_basis)
    return CartanInvolution(
        root_system=rs,
        theta=theta,
        split_basis=split_basis,
        positive_indices=positive,
        chamber=chamber,
        default_compatible=default_ok,
        doubled_restrictions=doubled,
        weyl_witness=_weyl_witness(rs, theta),
    )


def _compatible_positive_system(
    rs: RootSystem, theta: IntMat, doubled: IntMat, split_basis: tuple[Weight, ...]
) -> tuple[frozenset[int], WeylElement, bool]:
    """The positive root indices, the chamber transform and whether they are
    the default ones (the first half of the root table).

    A root is positive when its restriction pairs positively with a regular
    split vector, or, restricting to zero, when it pairs positively with a
    regular compact vector, taken from theta's +1 eigenbasis, which only this
    re-choice needs; the chamber is found by chasing 2 rho of that system,
    whose chase word depends only on its chamber.
    """
    zero = (0,) * rs.rank
    default = range(len(rs.roots) // 2)
    nonzero = {doubled[k] for k in default} - {zero}
    if not any(tuple(-x for x in d) in nonzero for d in nonzero):
        return frozenset(default), rs.identity, True

    split = _regular_covector(rs, split_basis, set(doubled) - {zero})
    fixed = [a for a, d in zip(rs.roots, doubled) if d == zero]
    compact = _regular_covector(rs, _eigenbasis(theta, +1), fixed)
    # the split sign of a root's restriction, or its compact sign where that is 0
    signs = ((_dot(split, d) or _dot(compact, a)) for a, d in zip(rs.roots, doubled))
    positive = frozenset(k for k, sign in enumerate(signs) if sign > 0)
    if len(positive) != len(default):
        raise NotRootPreserving("failed to choose a compatible positive system")
    two_rho = [sum(col) for col in zip(*(rs.roots[k] for k in positive))]
    _, word = _chase(rs, two_rho)
    chamber = word_element(rs, word)
    images = (tuple(_int_mat_vec(chamber.matrix, rs.roots[k])) for k in default)
    if {rs.root_index.get(b) for b in images} != positive:
        raise NotRootPreserving("chamber transform does not match positive system")
    return positive, chamber, False


@dataclass(frozen=True, eq=False)
class RestrictedRootSystem:
    """Restrictions of the ambient roots to the dual split part, with the dual
    description of their positive cone.

    Restricted roots lie in the (-1)-eigenspace and are stored doubled, as the
    nonzero int tuples d = alpha - theta(alpha): ``doubled_multiplicity`` maps
    each d to its number of roots alpha, ``doubled_positive`` holds the d
    of the involution's positive roots and ``doubled_simple`` the simple ones,
    sorted; ``vanishing_indices`` index the roots with d = 0.

    The facet rays are the basis dual to the simple restricted roots inside
    their span: a vector lies in the positive restricted cone iff it pairs
    nonnegatively with every ray.  That span is the whole split part: the
    compatible simple roots are a basis, so their restrictions span the image
    of 1 - theta, the (-1)-eigenspace, and once they pass the independence
    check there are exactly ``split_rank`` rays, none on a compact form.  Ray
    j is stored by its integer covector ``ray_covectors[j]`` = c, a positive
    multiple of the ray's form F X, so (v, X) < 0 exactly when c.v < 0, and
    by c's squared length ``ray_norms[j]`` = c F^-1 c, with which ray j's
    margin -(v, X)/|X| is -c.v / sqrt(n).
    ``dominant_covectors[j]`` is c for the dominant point of ray j's orbit:
    the largest c.v over an orbit is its product with the dominant point.
    In u = chamber^-1 v, the coordinates of theta's chamber transform, c.v is
    ``chamber_covectors[j]`` . u (c's products with the compatible simple
    roots, all >= 0) and v - theta(v) is ``chamber_restriction`` u.
    """

    root_system: RootSystem
    involution: CartanInvolution
    doubled_multiplicity: Mapping[tuple[int, ...], int]
    doubled_positive: frozenset[tuple[int, ...]]
    doubled_simple: IntMat
    vanishing_indices: frozenset[int]
    rho_restricted: Weight
    ray_covectors: IntMat
    dominant_covectors: IntMat
    chamber_covectors: IntMat
    chamber_restriction: IntMat
    ray_norms: tuple[Fraction, ...]


def _positive_and_simple(inv: CartanInvolution) -> tuple[set, list]:
    """The doubled positive restricted roots and the sorted simple ones, read
    off the compatible simple roots: the columns of theta's chamber
    transform."""
    rs = inv.root_system
    doubled = inv.doubled_restrictions
    positive = {doubled[k] for k in inv.positive_indices if any(doubled[k])}
    simple = [rs.root_index[b] for b in zip(*inv.chamber.matrix)]
    return positive, sorted({doubled[k] for k in simple if any(doubled[k])})


def _indivisible(d: tuple[int, ...], restricted) -> bool:
    return any(x % 2 for x in d) or tuple(x // 2 for x in d) not in restricted


def restricted_roots(rs: RootSystem, inv: CartanInvolution) -> RestrictedRootSystem:
    """Compute the restricted root system, its multiplicities and dual cone.

    Everything is found on the involution's doubled restrictions
    alpha - theta(alpha), which are int vectors; only rho is stored as a
    weight.  Raises PreconditionFailed for an involution on another root
    system, and ConsistencyError when the simple restricted roots are not
    linearly independent or a positive restricted root, or a compatible simple
    root, pairs negatively with a facet ray.
    """
    _require_same_root_system(rs, inv)
    doubled = inv.doubled_restrictions
    mult = Counter(d for d in doubled if any(d))
    positive, simple = _positive_and_simple(inv)
    two_rho = [sum(mult[d] * d[i] for d in positive) for i in range(rs.rank)]

    # the rays are the basis dual to the simple restricted roots d_k / 2, whose
    # Gram matrix is a quarter of the int one G.  row_reduce turns [G | 1] into
    # [det 1 | adj] with adj / det = G^-1, symmetric, so ray_j times det is
    # sum_k 2 adj[j][k] d_k, and (ray_j, ray_j) is 4 adj[j][j] / det
    r = len(simple)
    rows = [
        [*_int_mat_vec(simple, _int_mat_vec(rs.form, d)), *(int(i == j) for j in range(r))]
        for i, d in enumerate(simple)
    ]
    pivots, det = linalg.row_reduce(rows, r)
    if len(pivots) != r:
        raise ConsistencyError("simple restricted roots are not linearly independent")
    adj = [row[r:] for row in rows]
    rays = [_int_mat_vec(tuple(zip(*simple)), [2 * x for x in row]) for row in adj]
    # c = F ray_j det / g, g the gcd, so c F^-1 c = (det / g)^2 (ray_j, ray_j)
    forms = [_int_mat_vec(rs.form, ray) for ray in rays]
    gcds = [math.gcd(det, *f) for f in forms]
    covectors = tuple(tuple(x // g for x in f) for f, g in zip(forms, gcds))
    if any(x < 0 for d in positive for x in _int_mat_vec(covectors, d)):
        raise ConsistencyError("dual description disagrees with a positive restricted root")
    # F dom(ray) = symmetrizer * fws of dom(ray), divisible by g (F is W-invariant)
    dominant = [_chase(rs, list(ray))[0] for ray in rays]
    chamber = inv.chamber.matrix
    chamber_covectors = _int_mat_mul(covectors, chamber)
    if any(x < 0 for row in chamber_covectors for x in row):
        raise ConsistencyError("dual description disagrees with a compatible simple root")
    return RestrictedRootSystem(
        root_system=rs,
        involution=inv,
        doubled_multiplicity=mult,
        doubled_positive=frozenset(positive),
        doubled_simple=tuple(simple),
        vanishing_indices=frozenset(k for k, d in enumerate(doubled) if not any(d)),
        rho_restricted=_weight(two_rho, 4),
        ray_covectors=covectors,
        dominant_covectors=tuple(
            tuple(s * f // g for s, f in zip(rs.symmetrizer, fws)) for fws, g in zip(dominant, gcds)
        ),
        chamber_covectors=chamber_covectors,
        # column i: the doubled restriction of the compatible simple root chamber e_i
        chamber_restriction=tuple(zip(*(doubled[rs.root_index[b]] for b in zip(*chamber)))),
        ray_norms=tuple(Fraction(4 * adj[j][j] * det, g * g) for j, g in enumerate(gcds)),
    )


def multiplicity_identity_holds(rrs: RestrictedRootSystem) -> bool:
    """2 * (number of positive restricted preimages) + |vanishing| = |roots|."""
    covered = 2 * sum(rrs.doubled_multiplicity[d] for d in rrs.doubled_positive)
    return covered + len(rrs.vanishing_indices) == len(rrs.root_system.roots)


def _first_fit(families, r: int, count: int, simple_norms: list[int]) -> str:
    """The label of the first family with a type of rank r that has count
    positive roots and a sorted symmetrizer proportional to simple_norms, or "?r"."""
    for family in families:
        if not rootdata._FAMILY_MIN_RANK[family] <= r <= rootdata._FAMILY_MAX_RANK.get(family, r):
            continue
        t = rootdata._build_cached(((family, r),))
        if len(t.roots) != 2 * count:
            continue
        sym = sorted(t.symmetrizer)
        if [n * sym[0] for n in simple_norms] == [s * simple_norms[0] for s in sym]:
            return f"{family}{r}"
    return f"?{r}"


def classify_restricted_type(rrs: RestrictedRootSystem) -> str:
    """Cartan-type label of the restricted system, one per component, or "0".

    Components, supports and norms come from int pairings of the doubled
    restricted roots.  A reduced component whose roots all have a simple
    root's norm is named by ``_first_fit`` in family order A..G, which puts
    B2 before C2 and A3 before D3 (Humphreys, *Introduction to Lie Algebras
    and Representation Theory*, 11.4).  BC_r, B_r plus twice each short root,
    is a component with exactly r doubles, each twice a short root, whose
    indivisible roots pass the same test against B_r.  Others are "?r".
    """
    if not rrs.doubled_multiplicity:
        return "0"
    form = rrs.root_system.form
    simple = rrs.doubled_simple
    # each positive doubled root's pairings with the simple ones, and its norm
    pairings = {}
    norm = {}
    for d in rrs.doubled_positive:
        fd = _int_mat_vec(form, d)
        pairings[d] = _int_mat_vec(simple, fd)
        norm[d] = _dot(d, fd)
    # connected components of the simple roots, as index sets
    comps: list[set[int]] = []
    for i, s in enumerate(simple):
        linked = [c for c in comps if any(pairings[s][j] for j in c)]
        merged = {i}.union(*linked)
        comps = [c for c in comps if c not in linked] + [merged]
    labels = []
    for comp in comps:
        # positive roots pairing nonzero with the component and zero elsewhere
        span_pos = {
            d
            for d, p in pairings.items()
            if any(p[j] for j in comp)
            and not any(x for j, x in enumerate(p) if j not in comp)
        }
        r = len(comp)
        simple_norms = sorted([norm[simple[j]] for j in comp])
        norms = {norm[d] for d in span_pos}
        # twice a root has four times its norm
        doubles = {tuple([2 * x for x in d]) for d in span_pos if 4 * norm[d] in norms} & span_pos
        indivisible = span_pos - doubles
        if not ({norm[d] for d in indivisible} if doubles else norms) <= set(simple_norms):
            labels.append(f"?{r}")
        elif not doubles:
            labels.append(_first_fit(rootdata._FAMILY_MIN_RANK, r, len(span_pos), simple_norms))
        elif len(doubles) == r and all(norm[d] == 4 * simple_norms[0] for d in doubles):
            labels.append(_first_fit("B", r, len(indivisible), simple_norms).replace("B", "BC"))
        else:
            labels.append(f"?{r}")
    return "x".join(sorted(labels))


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


def _theta_commuting(
    rs: RootSystem, inv: CartanInvolution, simple: list[int]
) -> tuple[tuple, list]:
    """The tracked roots, and the elements w of W that commute with theta,
    each the tuple of indices of w applied to the tracked roots: the
    compatible simple roots beta_j (indices ``simple``), a basis, then their
    images theta beta_j.

    s_i w sends an entry k to ``reflections[i][k]`` (Humphreys 10.3), so W is
    closed on these tuples from the identity's.  theta permutes the roots,
    theta alpha = alpha - d with d the doubled restriction, and w commutes
    with theta iff theta (w beta_j) = w (theta beta_j) for every j.
    """
    pairs = zip(rs.roots, inv.doubled_restrictions)
    theta = [rs.root_index[tuple(map(operator.sub, a, d))] for a, d in pairs]
    tracked = (*simple, *(theta[k] for k in simple))
    group = closure((tracked,), lambda t: map(operator.itemgetter(*t), rs.reflections))
    r = rs.rank
    return tracked, [t for t in group if tuple(map(theta.__getitem__, t[:r])) == t[r:]]


def verify_exact_sequence(
    rs: RootSystem, inv: CartanInvolution, cap: int = DEFAULT_CAP
) -> ExactSequenceReport:
    """Check kernel, image and order identity of the restriction homomorphism.

    The theta-commutant of the Weyl group restricts to the split part; the
    kernel must be exactly the reflection group W_0 of the vanishing roots and
    the image exactly the Weyl group of the reduced restricted system.  Every
    refusal comes before any enumeration, in this order: a cap that is not an
    int of at least 1 (BadParameters), an involution on another root system
    (PreconditionFailed), a Weyl group larger than ``cap`` (CapExceeded),
    restricted roots that are not a root system, as for many theta = +-w with
    w in W (PreconditionFailed), and a restricted group larger than ``cap``.
    That group permutes the restricted roots, whose simple ones are a basis
    and generate it (Humphreys 1.5), so an element is the tuple of indices of
    its images of the simple restricted roots, read doubled from the
    involution's table.  The guard builds the simple reflections, closes the
    simple roots' indices under them and reflects only in a positive
    indivisible root outside that orbit: if s_b and w permute the roots, so
    does s_(w b) = w s_b w^-1 (Humphreys 9.2).  Then W and W_0 are closed on
    the same tuples of root indices (``_theta_commuting``), W_0 under the
    reflections in its simple roots u(alpha_j), u theta's chamber transform:
    u s_j u^-1, as a root permutation, walks each root index through
    ``RootSystem.reflections`` along the word u j u^-1.  Neither closure needs
    a cap: the tracked roots contain a basis, so distinct elements are
    distinct tuples, and W_0, a subgroup of W, has at most |W| <= cap.
    """
    _check_cap(cap)
    _require_same_root_system(rs, inv)
    if rs.weyl_order > cap:
        raise CapExceeded(f"Weyl group order {rs.weyl_order} exceeded cap {cap}")
    doubled = inv.doubled_restrictions
    # the compatible simple roots beta_j: the columns of theta's chamber transform
    beta = [rs.root_index[b] for b in zip(*inv.chamber.matrix)]
    positive = {doubled[k] for k in inv.positive_indices if any(doubled[k])}
    roots = sorted({d for d in doubled if any(d)})
    index = {d: k for k, d in enumerate(roots)}

    def reflection(b: tuple[int, ...]) -> tuple[int, ...]:
        """s_beta as a permutation of the indices, beta given doubled."""
        pairings = _int_mat_vec(roots, _int_mat_vec(rs.form, b))
        nb = pairings[index[b]]
        perm = []
        for v, pairing in zip(roots, pairings):
            # v - (2 (v, b) / nb) b has an image only when nb divides it on ints
            q, r = zip(*(divmod(nb * x - 2 * pairing * y, nb) for x, y in zip(v, b)))
            if any(r) or q not in index:
                raise PreconditionFailed(
                    "the restricted roots are not a root system: a reflection"
                    " in an indivisible restricted root does not permute them"
                )
            perm.append(index[q])
        return tuple(perm)

    # each simple restricted root, and a j whose beta_j restricts to it
    simple = {doubled[k]: j for j, k in enumerate(beta) if any(doubled[k])}
    # the simple reflections generate the group; s_(w b) = w s_b w^-1 permutes
    # the roots when s_b and w do, and s_beta = s_{-beta} = s_{2 beta}, so only
    # a positive indivisible root outside the simple roots' orbit is checked
    generators = [reflection(s) for s in simple]
    identity = tuple(index[s] for s in simple)
    orbit = closure(identity, lambda k: [p[k] for p in generators])
    for b in positive:
        if index[b] not in orbit and _indivisible(b, index):
            reflection(b)
    restricted_group = closure(
        (identity,),
        lambda t: [tuple(map(p.__getitem__, t)) for p in generators],
        cap,
        "restricted Weyl group",
    )

    tracked, commutant = _theta_commuting(rs, inv, beta)
    # the vanishing roots are a root system, generated by the reflections in
    # its simple roots u(alpha_j), the compatible simple roots that restrict
    # to 0; u s_j u^-1 walks each root index through u^-1, s_j and u
    word = inv.chamber.word
    gens = []
    for j, k in enumerate(beta):
        if not any(doubled[k]):
            perm = range(len(rs.roots))
            for i in (*word, j, *reversed(word)):
                perm = list(map(rs.reflections[i].__getitem__, perm))
            gens.append(perm)
    vanishing_group = closure((tracked,), lambda t: map(operator.itemgetter(*t), gens))
    # w beta_j - theta (w beta_j) = w (beta_j - theta beta_j) for w in the
    # commutant, so w's image of beta_j's simple restricted root is doubled[w beta_j]
    restriction = [index.get(d) for d in doubled]
    columns = list(simple.values())
    images = {t: tuple(map(restriction.__getitem__, map(t.__getitem__, columns))) for t in commutant}
    kernel = {t for t, image in images.items() if image == identity}
    return ExactSequenceReport(
        order_commutant=len(commutant),
        order_vanishing=len(vanishing_group),
        order_restricted=len(restricted_group),
        kernel_matches=kernel == set(vanishing_group),
        image_matches=set(images.values()) == set(restricted_group),
        order_identity=len(commutant) == len(vanishing_group) * len(restricted_group),
    )
