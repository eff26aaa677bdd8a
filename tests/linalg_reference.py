"""Fraction linear algebra kept as the reference for the int kernels.

``linalg.row_reduce`` replaced the Fraction Gauss-Jordan elimination below:
``solve`` and ``inverse`` are rational wrappers over it, ``int_nullspace``
gives its kernel basis on ints, and the rank is its number of pivots.  The
Fraction versions stay here so that tests compare the library with an
independent computation, never with itself.  ``mat_vec``,
``as_int_matrix`` and ``reflect`` (the simple reflection on Fraction
coordinates) are read only by tests and live here too.
"""

from fractions import Fraction

from cartan_ds import Weight

ZERO = Fraction(0)
ONE = Fraction(1)


def eliminate(rows, width):
    """In-place Fraction reduced row echelon form; returns pivot column indices."""
    pivots = []
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


def rank(a):
    if not a:
        return 0
    rows = [list(map(Fraction, row)) for row in a]
    return len(eliminate(rows, len(a[0])))


def solve(a, b):
    """One exact solution x of A x = b (free variables zero), or None."""
    m = len(a)
    if m == 0:
        return ()
    n = len(a[0])
    rows = [list(map(Fraction, a[i])) + [Fraction(b[i])] for i in range(m)]
    pivots = eliminate(rows, n)
    for i in range(len(pivots), m):
        if rows[i][n] != 0:
            return None
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return tuple(x)


def nullspace(a):
    """The RREF free-variable basis of the kernel of A."""
    m = len(a)
    if m == 0:
        return []
    n = len(a[0])
    rows = [list(map(Fraction, row)) for row in a]
    pivots = eliminate(rows, n)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def inverse(a):
    n = len(a)
    rows = [list(map(Fraction, a[i])) + [ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    pivots = eliminate(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def as_int_matrix(a):
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


def reflect(rs, i, lam):
    """The simple reflection s_i of a weight, on its Fraction coordinates."""
    a = rs.cartan_matrix[i]
    pairing = sum(a[j] * lam.coords[j] for j in range(rs.rank))
    if pairing == 0:
        return lam
    coords = list(lam.coords)
    coords[i] = coords[i] - pairing
    return Weight(tuple(coords))
