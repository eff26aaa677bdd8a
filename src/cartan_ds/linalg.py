"""Small exact linear algebra kit over the rationals.

Matrices are tuples of row tuples, vectors are flat tuples.  Entries are
`fractions.Fraction` (plain ints are accepted and coerced).  Everything here
is deterministic and allocation-light; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x: object) -> Fraction:
    """Coerce an int, string ("p/q") or Fraction to Fraction; a bool, like a
    float, is refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {x!r}") from exc
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" form (reduced, positive denominator; "p" when integral)."""
    return str(Fraction(q))


def vector(values: Iterable[object]) -> Vec:
    return tuple(frac(v) for v in values)


def matrix(rows: Iterable[Iterable[object]]) -> Mat:
    return tuple(vector(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def int_identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt) for ra in a
    )


def as_int_matrix(a: Iterable[Iterable[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """Cast an integral rational matrix to plain ints; raises on non-integers."""
    out = []
    for row in a:
        r = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError("matrix entry is not an integer")
            r.append(f.numerator)
        out.append(tuple(r))
    return tuple(out)


def _eliminate(rows: list[list[Fraction]], width: int) -> list[int]:
    """In-place reduced row echelon form; returns pivot column indices."""
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(a: Mat) -> int:
    if not a:
        return 0
    rows = [list(map(Fraction, row)) for row in a]
    return len(_eliminate(rows, len(a[0])))


def solve(a: Mat, b: Vec) -> Vec | None:
    """One exact solution x of A x = b, or None when inconsistent.

    A may be rectangular; when the solution space is positive-dimensional the
    free variables are set to zero, so the answer is deterministic.
    """
    m = len(a)
    if m == 0:
        return ()
    n = len(a[0])
    rows = [list(map(Fraction, a[i])) + [Fraction(b[i])] for i in range(m)]
    pivots = _eliminate(rows, n)
    for i in range(len(pivots), m):
        if rows[i][n] != 0:
            return None
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return tuple(x)


def nullspace(a: Mat) -> list[Vec]:
    """Deterministic basis of the kernel of A (RREF free-variable basis)."""
    m = len(a)
    if m == 0:
        return []
    n = len(a[0])
    rows = [list(map(Fraction, row)) for row in a]
    pivots = _eliminate(rows, n)
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def inverse(a: Mat) -> Mat:
    n = len(a)
    rows = [list(map(Fraction, a[i])) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    pivots = _eliminate(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))
