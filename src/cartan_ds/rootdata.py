"""Root systems and Weyl groups of finite Cartan type, in exact arithmetic.

Weights are stored in simple-root coordinates, the canonical basis throughout
the package; fundamental-weight coordinates are derived on demand.  With the
row convention used here the Cartan matrix entry ``A[i][j]`` equals
``<alpha_j, alpha_i^vee>``, simple reflections act on coordinates through row
``i`` only, and every Weyl-group element is an integer matrix.  A weight is
int numerators over one positive denominator, in lowest terms, and everything
is computed on plain ints: weight arithmetic, the Cartan matrix, the
symmetrizer and the invariant form, Weyl elements, the simple reflections of
the roots, the dominant-chamber chase, Weyl orbits (one int orbit kernel,
which also closes the roots) and :func:`apply_matrix`, through which every
integer matrix acts on a weight's numerators.  Kernels read ``Weight.nums``
and ``Weight.den`` and build their result with :func:`_weight`; Fractions
appear only in ``Weight.coords``, for reports.

A root is an index into ``RootSystem.roots``, one table of int tuples built
with the root system: the positive roots in ascending order, then their
negatives in the same order; ``root_index`` maps each tuple to its index.
rho, root heights and root membership read the table.  Weyl elements are
built on root indices, through the permutations ``reflections``, by
:func:`word_element`.

Reducible types are direct sums: the Cartan matrix is block diagonal and all
operations act factor-wise without special casing.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from . import linalg
from .errors import BadParameters, CapExceeded, InvalidType, RankMismatch
from .linalg import frac

DEFAULT_CAP = 10**6

Coords = tuple[Fraction, ...]
IntMat = tuple[tuple[int, ...], ...]
T = TypeVar("T")


def _check_cap(cap: object) -> None:
    """BadParameters unless an enumeration cap is an int, not a bool, and >= 1."""
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise BadParameters(f"cap must be an integer, got {cap!r}")
    if cap < 1:
        raise BadParameters("enumeration cap must be positive")


@dataclass(frozen=True, init=False, repr=False, slots=True)
class Weight:
    """Weight-space vector in simple-root coordinates, stored as the int
    numerators ``nums`` over one denominator ``den`` > 0, in lowest terms
    (gcd(nums..., den) = 1), so equal weights have equal pairs.

    ``Weight(coords)`` takes int or Fraction coordinates; ``coords`` builds
    them back as Fractions.  Arithmetic, equality and hashing are on ints.
    """

    nums: tuple[int, ...]
    den: int

    def __new__(cls, coords: Iterable[int | Fraction]) -> "Weight":
        coords = tuple(coords)
        for c in coords:
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise TypeError(f"weight coordinates are ints or Fractions, not {type(c).__name__}")
        # reduced coordinates over the lcm of their denominators share no factor with it
        den = math.lcm(*(c.denominator for c in coords))
        return _weight([c.numerator * (den // c.denominator) for c in coords], den)

    @staticmethod
    def of(values: Iterable[object]) -> "Weight":
        return Weight(frac(v) for v in values)

    @staticmethod
    def zero(rank: int) -> "Weight":
        return _weight((0,) * rank)

    @property
    def coords(self) -> Coords:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def rank(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self) -> str:
        return f"Weight(coords={self.coords!r})"

    def __reduce__(self):
        return _weight, (self.nums, self.den)

    def _combine(self, other: "Weight", op: Callable[[int, int], int]) -> "Weight":
        if len(self.nums) != len(other.nums):
            raise RankMismatch("weights live in different weight spaces")
        d, e = self.den, other.den
        return _weight([op(a * e, b * d) for a, b in zip(self.nums, other.nums)], d * e)

    def __add__(self, other: "Weight") -> "Weight":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Weight") -> "Weight":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "Weight":
        return _weight([-a for a in self.nums], self.den)

    def scale(self, t: object) -> "Weight":
        f = frac(t)
        return _weight([f.numerator * a for a in self.nums], f.denominator * self.den)


def _weight(nums: Iterable[int], den: int = 1) -> Weight:
    """The weight with int coordinates nums / den, den nonzero, brought to
    lowest terms with a positive denominator by one gcd."""
    nums = tuple(nums)
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums, den = tuple(x // g for x in nums), den // g
    w = object.__new__(Weight)
    object.__setattr__(w, "nums", nums)
    object.__setattr__(w, "den", den)
    return w


@dataclass(frozen=True, eq=False)
class WeylElement:
    """Group element as an integer matrix plus one word in simple reflections.

    ``matrix`` equals the product of the simple-reflection matrices listed in
    ``word`` (left factor applied last).  Equality and hashing use the matrix
    only; the word is a certificate, not part of the identity.
    """

    matrix: IntMat
    word: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)


class StabilizerInfo(NamedTuple):
    gens: tuple[WeylElement, ...]
    is_regular: bool
    dominant: Weight
    to_dominant: WeylElement


def closure(
    start: Iterable[T],
    neighbours: Callable[[T], Iterable[T]],
    cap: int | None = None,
    what: str = "closure",
) -> dict[T, None]:
    """Breadth-first closure of ``start`` under ``neighbours``.

    Elements come in the order found, the first of equal ones kept; a count
    past ``cap`` raises CapExceeded.
    """
    seen = dict.fromkeys(start)
    queue = deque(seen)
    while queue:
        for nxt in neighbours(queue.popleft()):
            if nxt not in seen:
                if cap is not None and len(seen) >= cap:
                    raise CapExceeded(f"{what} exceeded cap {cap}")
                seen[nxt] = None
                queue.append(nxt)
    return seen


_FAMILY_MIN_RANK = {"A": 1, "B": 1, "C": 1, "D": 2, "E": 6, "F": 4, "G": 2}
_FAMILY_MAX_RANK = {"E": 8, "F": 4, "G": 2}

_E_EDGES = {
    6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)],
    7: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
    8: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)],
}


def parse_cartan_type(text: str) -> tuple[tuple[str, int], ...]:
    """Parse a type string like "A2" or "B3xA1" into ((family, rank), ...)."""
    if not isinstance(text, str) or not text.strip():
        raise InvalidType("empty Cartan type")
    factors = []
    for part in text.strip().split("x"):
        m = re.fullmatch(r"\s*([A-Ga-g])\s*([0-9]+)\s*", part)
        if m is None:
            raise InvalidType(f"malformed Cartan type factor: {part!r}")
        family = m.group(1).upper()
        n = int(m.group(2))
        lo = _FAMILY_MIN_RANK[family]
        hi = _FAMILY_MAX_RANK.get(family)
        if n < lo or (hi is not None and n > hi):
            raise InvalidType(f"illegal rank for type {family}: {n}")
        if family == "E" and n not in (6, 7, 8):
            raise InvalidType(f"illegal rank for type E: {n}")
        factors.append((family, n))
    return tuple(factors)


def format_cartan_type(factors: Sequence[tuple[str, int]]) -> str:
    return "x".join(f"{fam}{n}" for fam, n in factors)


def _factors(cartan_type: str | Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Factors of a type string, or of (family, rank) pairs read as one.

    Formatting the pairs first makes a rank such as 2.7, True or -1 an
    InvalidType instead of a truncated int.
    """
    if isinstance(cartan_type, str):
        return parse_cartan_type(cartan_type)
    factors = parse_cartan_type(format_cartan_type(cartan_type))
    if len(factors) != len(cartan_type):
        raise InvalidType(f"factor families must be single letters: {cartan_type!r}")
    return factors


def _chain_matrix(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def _cartan_block(family: str, n: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix rows and symmetrizer of one irreducible (or A1-like) factor."""
    if family == "A":
        return _chain_matrix(n), [1] * n
    if family == "B":
        a = _chain_matrix(n)
        if n >= 2:
            a[n - 1][n - 2] = -2
        d = [2] * (n - 1) + [1]
        return a, d
    if family == "C":
        a = _chain_matrix(n)
        if n >= 2:
            a[n - 2][n - 1] = -2
        d = [1] * (n - 1) + [2]
        return a, d
    if family == "D":
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 2):
            a[i][i + 1] = -1
            a[i + 1][i] = -1
        if n >= 3:
            a[n - 3][n - 1] = -1
            a[n - 1][n - 3] = -1
        return a, [1] * n
    if family == "E":
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in _E_EDGES[n]:
            a[i - 1][j - 1] = -1
            a[j - 1][i - 1] = -1
        return a, [1] * n
    if family == "F":
        a = _chain_matrix(4)
        a[2][1] = -2
        return a, [2, 2, 1, 1]
    if family == "G":
        return [[2, -3], [-1, 2]], [1, 3]
    raise InvalidType(f"unknown family {family!r}")


class RootSystem:
    """Immutable root-system data generated from a Cartan matrix.

    Do not construct directly; use :func:`build_root_system`, which caches and
    validates.  All derived data (roots, rho, fundamental weights, invariant
    form) is exact; the Cartan matrix, the symmetrizer, the invariant form and
    the root table ``roots`` are ints; ``reflections[i][k]`` is the index of
    s_i(``roots[k]``), through which Weyl elements are built on root indices.
    Fundamental weight i is ``fw_numerators[i]`` over ``fw_denominator``.
    """

    def __init__(self, factors: tuple[tuple[str, int], ...]):
        self.cartan_type = factors
        blocks = [_cartan_block(fam, n) for fam, n in factors]
        rank = sum(n for _, n in factors)
        self.rank = rank
        a = [[0] * rank for _ in range(rank)]
        d: list[int] = []
        offset = 0
        for (block, sym), (_, n) in zip(blocks, factors):
            for i in range(n):
                for j in range(n):
                    a[offset + i][offset + j] = block[i][j]
            d.extend(sym)
            offset += n
        self.cartan_matrix: IntMat = tuple(tuple(row) for row in a)
        self.symmetrizer: tuple[int, ...] = tuple(d)
        self.form: IntMat = tuple(
            tuple(d[i] * a[i][j] for j in range(rank)) for i in range(rank)
        )
        # (k, A[k][i]) for node i itself and each of its at most three neighbours k
        self._neighbours: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((k, a[k][i]) for k in range(rank) if a[k][i]) for i in range(rank)
        )
        self.identity = WeylElement(linalg.int_identity(rank), ())
        self.weyl_order = weyl_order(factors)
        # the positive roots in ascending order, then their negatives in the
        # same order; the simple roots are the unit vectors
        positive = sorted(a for a in _int_orbit(self, self.identity.matrix) if min(a) >= 0)
        self.roots: IntMat = tuple(positive) + tuple(tuple(-x for x in a) for a in positive)
        self.root_index: dict[tuple[int, ...], int] = {a: k for k, a in enumerate(self.roots)}
        # s_i changes coordinate i of a root r by the pairing (A r)_i
        self.reflections: IntMat = tuple(
            tuple(
                self.root_index[r[:i] + (r[i] - sum(map(operator.mul, row, r)),) + r[i + 1 :]]
                for r in self.roots
            )
            for i, row in enumerate(self.cartan_matrix)
        )
        self.two_rho: tuple[int, ...] = tuple(map(sum, zip(*positive)))
        self.rho: Weight = _weight(self.two_rho, 2)
        # fundamental weight i is column i of A^-1: row_reduce turns [A | 1]
        # into [det 1 | adj] with A^-1 = adj / det, brought to lowest terms
        rows = [[*row, *(int(i == j) for j in range(rank))] for i, row in enumerate(a)]
        _, det = linalg.row_reduce(rows, rank)
        g = math.gcd(det, *(x for row in rows for x in row[rank:]))
        self.fw_denominator = det // g
        self.fw_numerators: IntMat = tuple(
            tuple(x // g for x in col) for col in zip(*(row[rank:] for row in rows))
        )
        self.fundamental_weights: tuple[Weight, ...] = tuple(
            _weight(row, self.fw_denominator) for row in self.fw_numerators
        )

    def weight_from_fw(self, values: Weight | Iterable[object]) -> Weight:
        lam = values if isinstance(values, Weight) else Weight.of(values)
        if lam.rank != self.rank:
            raise RankMismatch("coordinate length does not match rank")
        columns = tuple(zip(*self.fw_numerators))
        return _weight(_int_mat_vec(columns, lam.nums), lam.den * self.fw_denominator)


@lru_cache(maxsize=None)
def _build_cached(factors: tuple[tuple[str, int], ...]) -> RootSystem:
    return RootSystem(factors)


def build_root_system(cartan_type: str | Sequence[tuple[str, int]]) -> RootSystem:
    """Construct (with caching) the root system of the given finite type."""
    return _build_cached(_factors(cartan_type))


def _nums_on(rs: RootSystem, lam: Weight) -> list[int]:
    """lam's int numerators as a new list, lam checked to live on rs."""
    if lam.rank != rs.rank:
        raise RankMismatch("weight rank does not match root system")
    return list(lam.nums)


def _int_mat_vec(mat: IntMat, v: Sequence[int]) -> list[int]:
    return [sum(map(operator.mul, row, v)) for row in mat]


def _int_mat_mul(a: IntMat, b: IntMat) -> IntMat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def apply_matrix(mat: IntMat, lam: Weight) -> Weight:
    """A square integer matrix applied to a weight: to its int numerators,
    over the same denominator."""
    if len(mat) != lam.rank:
        raise RankMismatch("matrix and weight have different ranks")
    return _weight(_int_mat_vec(mat, lam.nums), lam.den)


def apply(w: WeylElement, lam: Weight) -> Weight:
    """Apply a Weyl element (or any integer matrix element) to a weight."""
    return apply_matrix(w.matrix, lam)


def dominant_representative(rs: RootSystem, lam: Weight) -> tuple[Weight, WeylElement]:
    """The dominant element of W.lam together with w such that w(lam) is dominant.

    Deterministic: always reflects at the lowest-index negative pairing.  The
    chase runs on lam's int numerators (:func:`_chase`), whose pairings have
    the signs of lam's.  w is built from the chase word.
    """
    coords = _nums_on(rs, lam)
    _, word = _chase(rs, coords)
    return _weight(coords, lam.den), word_element(rs, word[::-1])


def _chase(rs: RootSystem, coords: list[int]) -> tuple[list[int], list[int]]:
    """Chase int coordinates to the dominant chamber in place, reflecting at the
    lowest-index negative pairing (the pairings are updated per step); returns
    the dominant fundamental-weight coordinates and the reflections in the
    order applied."""
    fws = _int_mat_vec(rs.cartan_matrix, coords)
    word: list[int] = []
    while True:
        for i, c in enumerate(fws):
            if c < 0:
                break
        else:
            return fws, word
        # s_i subtracts c * alpha_i, so pairing j drops by A[j][i] * c (fws[i] becomes -c)
        coords[i] -= c
        for j, a_ji in rs._neighbours[i]:
            fws[j] -= a_ji * c
        word.append(i)


def _weyl_witness(rs: RootSystem, mat: IntMat) -> WeylElement | None:
    """The Weyl element whose matrix is the int matrix mat, or None.

    Chases mat(2 rho), taken on ints, to the dominant chamber with some w.  If
    mat = u is in the group then w u fixes the regular weight 2 rho, so w u = 1
    and u is the inverse of w (w's word reversed); the product w mat = 1
    decides exactly.
    """
    _, w = dominant_representative(rs, _weight(_int_mat_vec(mat, rs.two_rho)))
    if _int_mat_mul(w.matrix, mat) != rs.identity.matrix:
        return None
    return WeylElement(mat, tuple(reversed(w.word)))


def word_element(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """The Weyl element s_{word[0]} ... s_{word[-1]}, built on root indices.

    Column j is the root w(alpha_j): alpha_j's index walked through
    ``rs.reflections``, last letter first.  The inverse of w is
    ``word_element(rs, w.word[::-1])``.
    """
    if any(not 0 <= i < rs.rank for i in word):
        raise RankMismatch("word names a simple reflection outside the rank")
    tables = [rs.reflections[i] for i in reversed(word)]
    columns = []
    for e in rs.identity.matrix:
        k = rs.root_index[e]
        for table in tables:
            k = table[k]
        columns.append(rs.roots[k])
    return WeylElement(tuple(zip(*columns)), tuple(word))


def _int_orbit(
    rs: RootSystem, starts: Iterable[tuple[int, ...]], cap: int | None = None
) -> dict[tuple[int, ...], None]:
    """The W-orbits of int coordinate tuples, in the order found.

    s_i changes coordinate i only, by the pairing p = (A v)_i; a count past
    ``cap`` raises CapExceeded.
    """
    rows = list(enumerate(rs.cartan_matrix))

    def images(v: tuple[int, ...]):
        for i, row in rows:
            p = sum(map(operator.mul, row, v))
            if p:
                w = list(v)
                w[i] -= p
                yield tuple(w)

    return closure(starts, images, cap, "orbit size")


def _wall_group_order(rs: RootSystem, walls: Iterable[int]) -> int:
    """|W_J| for the simple walls J, from Kostant's height partition.

    With n_h the positive roots of height h supported on J, exactly
    n_h - n_{h+1} exponents of W_J equal h, and |W_J| is the product of the
    exponents plus one.
    """
    off = set(range(rs.rank)).difference(walls)
    positive = rs.roots[: len(rs.roots) // 2]
    heights = Counter(sum(a) for a in positive if not any(a[i] for i in off))
    order = 1
    for h, n in heights.items():
        order *= (h + 1) ** (n - heights[h + 1])
    return order


def _chase_within_cap(rs: RootSystem, coords: list[int], cap: int) -> list[int]:
    """:func:`_chase` of int coordinates in place, returning the fundamental
    coordinates; CapExceeded when |W| exceeds ``cap`` and so does the orbit
    size |W| / |W_J|, J the walls (zeros) of the dominant point."""
    fws, _ = _chase(rs, coords)
    if rs.weyl_order > cap:
        size = rs.weyl_order // _wall_group_order(rs, [i for i, f in enumerate(fws) if not f])
        if size > cap:
            raise CapExceeded(f"orbit size exceeded cap {cap} (predicted size {size})")
    return fws


def weyl_orbit(rs: RootSystem, lam: Weight, cap: int = DEFAULT_CAP) -> frozenset[Weight]:
    """Full W-orbit of a weight; raises CapExceeded past ``cap`` elements.

    The orbit is closed on lam's int numerators, over lam's denominator.  An
    orbit larger than ``cap`` is refused from a chase, before the closure
    (:func:`_chase_within_cap`).
    """
    _check_cap(cap)
    _chase_within_cap(rs, _nums_on(rs, lam), cap)
    return frozenset(_weight(v, lam.den) for v in _int_orbit(rs, (lam.nums,), cap))


def stabilizer_generators(rs: RootSystem, lam: Weight) -> StabilizerInfo:
    """Reflection generators of Stab_W(lam), a regularity flag, and the chase.

    The stabilizer of a dominant weight is generated by the simple reflections
    orthogonal to it; a general weight's generators are those conjugated back.
    """
    coords = _nums_on(rs, lam)
    _, word, gens = _stabilizer_chase(rs, coords)
    dom, w = _weight(coords, lam.den), word_element(rs, word[::-1])
    return StabilizerInfo(gens=gens, is_regular=not gens, dominant=dom, to_dominant=w)


def _stabilizer_chase(rs: RootSystem, coords: list[int]) -> tuple[list[int], list[int], tuple]:
    """:func:`_chase` of int coordinates, and their stabilizer's generators:
    for each wall i (a zero of the dominant fundamental coordinates), s_i
    conjugated back by the chase word u, the Weyl element of u + [i] + u
    reversed.  No matrix is built when there is no wall."""
    fws, word = _chase(rs, coords)
    back = word[::-1]
    gens = tuple(word_element(rs, word + [i] + back) for i, f in enumerate(fws) if not f)
    return fws, word, gens


def longest_element(rs: RootSystem) -> WeylElement:
    """w0, computed by chasing the strictly antidominant regular vector -rho."""
    _, w = dominant_representative(rs, -rs.rho)
    return w


def enumerate_weyl(rs: RootSystem, cap: int = DEFAULT_CAP) -> frozenset[WeylElement]:
    """All Weyl-group elements, breadth first under right multiplication.

    Each element w is keyed by the int tuple w^-1 (2 rho), and w s_i by its
    simple reflection s_i(w^-1 (2 rho)), one Cartan-row pairing.  The key is
    exact because only 1 fixes the regular weight 2 rho.  A matrix is built
    only for a new key, in O(rank^2) from its parent's; each element keeps
    the first (shortlex least) word that reaches it.  A group whose exact
    :func:`weyl_order` exceeds ``cap`` is refused before any work.
    """
    _check_cap(cap)
    if rs.weyl_order > cap:
        raise CapExceeded(f"Weyl group order {rs.weyl_order} exceeded cap {cap}")
    rows = list(enumerate(rs.cartan_matrix))
    elements = {rs.two_rho: rs.identity}

    def right_multiples(v: tuple[int, ...]):
        w = elements[v]
        for i, row in rows:
            u = list(v)
            u[i] -= sum(map(operator.mul, row, v))
            key = tuple(u)
            if key not in elements:
                # (m s_i)[k][j] = m[k][j] - m[k][i] A[i][j]
                elements[key] = WeylElement(
                    tuple(tuple(x - mk[i] * a for x, a in zip(mk, row)) for mk in w.matrix),
                    w.word + (i,),
                )
                yield key

    closure((rs.two_rho,), right_multiples)
    return frozenset(elements.values())


_WEYL_ORDER_EXCEPTIONAL = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("G", 2): 12,
}


def weyl_order(cartan_type: str | Sequence[tuple[str, int]]) -> int:
    """Order of the Weyl group, by the classical closed formulas.

    Used to budget enumerations before starting them; cross-checked against
    actual enumeration in the test suite.
    """
    total = 1
    for family, n in _factors(cartan_type):
        if family == "A":
            total *= math.factorial(n + 1)
        elif family in ("B", "C"):
            total *= 2**n * math.factorial(n)
        elif family == "D":
            total *= 2 ** max(n - 1, 1) * math.factorial(n)
        else:
            total *= _WEYL_ORDER_EXCEPTIONAL[(family, n)]
    return total
