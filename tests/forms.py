"""The inputs that the test modules share.

``form`` builds a catalog form's root system, validated involution and
restricted root system once per test run; tests share them and change
nothing in them.  ``pm_w_involutions`` yields every
theta = +-w, w in W, that validates as an involution, on the types of
``PM_W_TYPES``, and ``involutive_automorphisms`` returns every w sigma,
sigma a diagram automorphism, that validates on one type, once per test
run.  ``random_matrix`` draws the seeded rational matrices that the
involution checks, the elimination kernel and the exact sequence are
compared on.
"""

import functools
import itertools
from fractions import Fraction

from cartan_ds import (
    CartanDSError,
    Weight,
    build_root_system,
    catalog_form,
    entry_involution,
    entry_root_system,
    enumerate_weyl,
    restricted_roots,
    validate_involution,
)
from cartan_ds import linalg
from cartan_ds.rootdata import _int_mat_mul
import linalg_reference
from weight_reference import pairing

PM_W_TYPES = ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1", "A2xA1", "D4")


@functools.lru_cache(maxsize=None)
def form(form_id):
    """(root system, involution, restricted root system) of a catalog form."""
    entry = catalog_form(form_id)
    rs = entry_root_system(entry)
    inv = entry_involution(entry, rs=rs)
    return rs, inv, restricted_roots(rs, inv)


def pm_w_involutions(cartan_type):
    """Every theta = +-w, w in W, that validates as an involution."""
    rs = build_root_system(cartan_type)
    for w in sorted(enumerate_weyl(rs), key=lambda w: w.matrix):
        for sign in (1, -1):
            theta = tuple(tuple(sign * x for x in row) for row in w.matrix)
            try:
                yield rs, validate_involution(rs, theta)
            except CartanDSError:
                continue


@functools.lru_cache(maxsize=None)
def involutive_automorphisms(cartan_type):
    """Every (root system, w sigma), w in W and sigma a diagram automorphism,
    that validates as an involution."""
    rs = build_root_system(cartan_type)
    a, n = rs.cartan_matrix, rs.rank
    found = []
    for p in itertools.permutations(range(n)):
        if any(a[p[i]][p[j]] != a[i][j] for i in range(n) for j in range(n)):
            continue
        sigma = tuple(tuple(int(p[j] == i) for j in range(n)) for i in range(n))
        for w in sorted(enumerate_weyl(rs), key=lambda w: w.matrix):
            try:
                found.append((rs, validate_involution(rs, _int_mat_mul(w.matrix, sigma))))
            except CartanDSError:
                continue
    return tuple(found)


def _random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 5]))


def random_matrix(rng, rs):
    """A random rational matrix, a rational reflection in the invariant form,
    or a conjugate of a diagonal sign matrix."""
    n = rs.rank
    kind = rng.randrange(3)
    if kind == 0:
        return [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
    if kind == 1:
        v = Weight(tuple(_random_rational(rng) for _ in range(n)))
        if v.is_zero():
            v = Weight(rs.identity.matrix[0])
        # s_v(e_j) = e_j - 2 (e_j, v) / (v, v) v
        c = [2 * pairing(rs, Weight(e), v) / pairing(rs, v, v) for e in rs.identity.matrix]
        return [[(k == j) - c[j] * v.coords[k] for j in range(n)] for k in range(n)]
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if linalg_reference.rank(p) == n:
            break
    d = [[rng.choice((1, -1)) if i == j else 0 for j in range(n)] for i in range(n)]
    return linalg.mat_mul(linalg.mat_mul(p, d), linalg_reference.inverse(p))
