"""Small exact linear algebra kit: one int elimination kernel, rational wrappers.

Matrices are tuples of row tuples, vectors are flat tuples.  ``row_reduce``
is fraction-free Gauss-Jordan on int rows.  ``solve``, ``inverse`` and
``int_nullspace`` take int or `fractions.Fraction` entries and scale each row
to ints (the reduced row echelon form stays the same); ``solve`` and
``inverse`` divide once, at the end, and ``int_nullspace`` leaves its basis on
ints over one denominator.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)


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


def int_identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(len(ra))) for cb in bt) for ra in a
    )


def row_reduce(rows: list[list[int]], width: int) -> tuple[list[int], int]:
    """Reduce int rows in place over their first ``width`` columns; returns the
    pivot columns and d > 0 with rows / d the reduced row echelon form.

    Pivot p maps each other row to (p row - f pivot_row) / d, f its entry in
    p's column and d the previous pivot (at first 1): exact by Bareiss (1968).
    """
    pivots: list[int] = []
    d = 1
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(c)
        d = p
    if d < 0:
        rows[:] = [[-x for x in row] for row in rows]
        d = -d
    return pivots, d


def _int_row(row: Sequence[Fraction | int]) -> list[int]:
    """A rational row times the lcm of its denominators."""
    m = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def solve(a: Mat, b: Vec) -> Vec | None:
    """One exact solution x of A x = b, or None when inconsistent.

    A may be rectangular; when the solution space is positive-dimensional the
    free variables are set to zero, so the answer is deterministic.
    """
    m = len(a)
    if m == 0:
        return ()
    n = len(a[0])
    rows = [_int_row([*a[i], b[i]]) for i in range(m)]
    pivots, d = row_reduce(rows, n)
    if any(rows[i][n] for i in range(len(pivots), m)):
        return None
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = Fraction(rows[r][n], d)
    return tuple(x)


def int_nullspace(a: Mat) -> tuple[list[list[int]], int]:
    """Deterministic basis of the kernel of A (RREF free-variable basis), as
    int vectors over one denominator d > 0."""
    if not a:
        return [], 1
    n = len(a[0])
    rows = [_int_row(row) for row in a]
    pivots, d = row_reduce(rows, n)
    basis = []
    for free in sorted(set(range(n)).difference(pivots)):
        v = [0] * n
        v[free] = d
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis, d


def inverse(a: Mat) -> Mat:
    n = len(a)
    rows = [_int_row([*a[i], *(int(i == j) for j in range(n))]) for i in range(n)]
    pivots, d = row_reduce(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows)
