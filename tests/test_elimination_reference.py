"""The int elimination kernel and its rational wrappers against the Fraction
Gauss-Jordan elimination they replaced.

``linalg.row_reduce`` is fraction-free Gauss-Jordan on int rows: it returns
the pivot columns and d > 0 with rows / d the reduced row echelon form, so
the rank is the number of pivots.  ``solve`` and ``inverse`` scale each row
to ints and divide once, and ``int_nullspace`` leaves its basis on ints over
one denominator.  The reference is ``linalg_reference``: the Fraction
elimination and the Fraction ``solve``, ``nullspace`` and ``inverse``.  Both
are run on the matrices the library reduces (the 112 catalog eigenspaces,
every catalog Cartan matrix, the restricted Gram matrices of the catalog and
of the +-w involutions, the ambient systems of ``scripts/build_catalog.py``)
and on seeded and drawn rational, singular, rectangular and augmented
matrices.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``: the elimination-kernel group there.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    BadParameters,
    Weight,
    build_default_catalog,
    build_root_system,
)
from cartan_ds import linalg
from cartan_ds.catalog import (
    _diag,
    _simple_roots_in_ambient,
    _theta_from_ambient_map,
    _transposition_product,
)
from cartan_ds.realform import _eigenbasis, _positive_and_simple
from cartan_ds.rootdata import _int_mat_vec
from forms import PM_W_TYPES, form, pm_w_involutions, random_matrix
import linalg_reference
from weight_reference import pairing

CATALOG = build_default_catalog()


def assert_kernel_matches(rows, width=None):
    """row_reduce of int rows against the Fraction elimination of the same rows."""
    width = len(rows[0]) if width is None else width
    got = [list(row) for row in rows]
    pivots, d = linalg.row_reduce(got, width)
    want = [list(map(Fraction, row)) for row in rows]
    assert pivots == linalg_reference.eliminate(want, width)
    assert d > 0
    assert all(type(x) is int for row in got for x in row)
    assert [[Fraction(x, d) for x in row] for row in got] == want
    return pivots


def int_nullspace_fractions(a):
    """``int_nullspace`` of a, its int basis divided by its denominator."""
    basis, d = linalg.int_nullspace(a)
    assert d > 0 and all(type(x) is int for v in basis for x in v)
    return [tuple(Fraction(x, d) for x in v) for v in basis]


def assert_wrappers_match(a, b=None):
    """solve, int_nullspace and inverse of a rational matrix against the
    reference, and the kernel on its rows scaled to ints."""
    assert int_nullspace_fractions(a) == linalg_reference.nullspace(a)
    if a:
        assert_kernel_matches([linalg._int_row(row) for row in a])
    if b is not None:
        assert linalg.solve(a, b) == linalg_reference.solve(a, b)
        if a:
            assert_kernel_matches([linalg._int_row([*row, x]) for row, x in zip(a, b)], len(a[0]))
    if a and len(a) == len(a[0]):
        try:
            want = linalg_reference.inverse(a)
        except ValueError:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                linalg.inverse(a)
        else:
            assert linalg.inverse(a) == want


def test_kernel_hand_cases():
    # a negative last pivot: rows / d is the same, d is made positive
    rows = [[0, -2], [-3, 0]]
    assert linalg.row_reduce(rows, 2) == ([0, 1], 6)
    assert rows == [[6, 0], [0, 6]]
    rows = [[-1, 4]]
    assert linalg.row_reduce(rows, 1) == ([0], 1)
    assert rows == [[1, -4]]
    # a skipped column, a zero row, and an augmented column left unreduced
    rows = [[0, 2, 4, 1], [0, 0, 0, 0], [0, 1, 3, 1]]
    assert linalg.row_reduce(rows, 3) == ([1, 2], 2)
    assert rows == [[0, 2, 0, -1], [0, 0, 2, 1], [0, 0, 0, 0]]
    assert linalg.row_reduce([], 3) == ([], 1)


def test_wrappers_take_ints_and_fractions():
    a = ((2, 1), (1, 3))
    assert linalg.inverse(a) == linalg_reference.inverse(a)
    assert linalg.solve(a, (5, 10)) == (Fraction(1), Fraction(3))
    mixed = ((Fraction(1, 2), 1), (3, Fraction(-2, 3)))
    assert_wrappers_match(mixed, (Fraction(1, 3), 2))
    assert all(type(x) is Fraction for row in linalg.inverse(a) for x in row)


def test_catalog_eigenspaces_match_reference():
    checked = 0
    for entry in CATALOG:
        rs, inv, _ = form(entry.id)
        theta = entry.theta_matrix
        n = len(theta)
        for sign, basis in ((-1, inv.split_basis), (1, _eigenbasis(inv.theta, +1))):
            shifted = tuple(
                tuple(theta[i][j] - (sign if i == j else 0) for j in range(n)) for i in range(n)
            )
            want = linalg_reference.nullspace(shifted)
            assert int_nullspace_fractions(shifted) == want, entry.id
            assert basis == tuple(Weight(v) for v in want), entry.id
            assert_kernel_matches(shifted)
            checked += 1
    assert checked == 112


def test_catalog_cartan_matrices_match_reference():
    types = sorted({entry.cartan_type for entry in CATALOG})
    for t in types:
        rs = build_root_system(t)
        want = linalg_reference.inverse(rs.cartan_matrix)
        assert linalg.inverse(rs.cartan_matrix) == want, t
        assert rs.fundamental_weights == tuple(
            Weight(tuple(row[i] for row in want)) for i in range(rs.rank)
        ), t
        assert_kernel_matches([[*row, *(int(i == j) for j in range(rs.rank))]
                               for i, row in enumerate(rs.cartan_matrix)], rs.rank)
    assert len(types) == 20


def assert_gram_matches(rs, inv):
    """The int Gram matrix of the doubled simple restricted roots, and the
    Fraction one of the simple restricted roots, against the reference."""
    _, simple = _positive_and_simple(inv)
    gram = tuple(_int_mat_vec(simple, _int_mat_vec(rs.form, d)) for d in simple)
    assert_wrappers_match(gram)
    halves = [Weight(tuple(Fraction(x, 2) for x in d)) for d in simple]
    assert_wrappers_match(tuple(tuple(pairing(rs, a, b) for b in halves) for a in halves))
    return len(simple)


def test_restricted_gram_matrices_match_reference():
    ranks = set()
    for entry in CATALOG:
        ranks.add(assert_gram_matches(*form(entry.id)[:2]))
    checked = 0
    for t in PM_W_TYPES:
        for rs, inv in pm_w_involutions(t):
            ranks.add(assert_gram_matches(rs, inv))
            checked += 1
    assert checked >= 250
    # every restricted rank but 5 occurs
    assert ranks == {0, 1, 2, 3, 4, 6, 7, 8}


def ambient_models():
    """(form id, family, rank, ambient map) of every catalog form the builder
    converts from an ambient model."""
    for entry in CATALOG:
        head, _, args = entry.id.partition("(")
        if head not in ("su", "so"):
            continue
        p, q = map(int, args.rstrip(")").split(","))
        if head == "su":
            yield entry, "A", p + q - 1, _transposition_product(p + q, q)
        else:
            m = (p + q) // 2
            yield entry, "B" if (p + q) % 2 else "D", m, _diag([-1] * q + [1] * (m - q))


def reference_theta(family, rank, ambient_map):
    """The builder as it was: one Fraction solve per simple root."""
    simples = _simple_roots_in_ambient(family, rank)
    dim = len(simples[0])
    basis_cols = tuple(tuple(simples[c][r] for c in range(rank)) for r in range(dim))
    columns = []
    for i in range(rank):
        image = tuple(
            sum(ambient_map[r][k] * simples[i][k] for k in range(dim)) for r in range(dim)
        )
        columns.append(linalg_reference.solve(basis_cols, image))
    rows = tuple(tuple(columns[c][r] for c in range(rank)) for r in range(rank))
    return linalg_reference.as_int_matrix(rows)


def test_builder_ambient_systems_match_reference():
    checked = 0
    for entry, family, rank, ambient_map in ambient_models():
        want = reference_theta(family, rank, ambient_map)
        assert entry.theta_matrix == want == _theta_from_ambient_map(family, rank, ambient_map)
        simples = _simple_roots_in_ambient(family, rank)
        images = [_int_mat_vec(ambient_map, s) for s in simples]
        rows = [list(row) for row in zip(*simples, *images)]
        assert assert_kernel_matches(rows, rank) == list(range(rank))
        checked += 1
    assert checked == 21


def test_builder_refuses_an_image_off_the_root_lattice_or_space():
    # C2: e1 - e2 goes to e1 = alpha_1 + alpha_2 / 2, off the root lattice
    with pytest.raises(BadParameters, match="root lattice"):
        _theta_from_ambient_map("C", 2, [[1, 0], [0, 0]])
    # A1: e1 - e2 goes to e1 + e2, off the span of the roots
    with pytest.raises(BadParameters, match="root space"):
        _theta_from_ambient_map("A", 1, [[1, 0], [1, 0]])


def test_seeded_matrices_match_reference():
    rng = random.Random(20)
    types = [build_root_system(t) for t in ["A1", "A1xA1", "A2", "B2", "G2", "A3", "B3"]]
    for _ in range(600):
        a = tuple(map(tuple, random_matrix(rng, rng.choice(types))))
        b = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in a)
        assert_wrappers_match(a, b)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def matrices(draw, n=None):
    """A rational m x n matrix, m, n <= 5 (n drawn unless given); some of its
    rows combinations of others, so that it is often singular."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5)) if n is None else n
    entry = st.one_of(st.just(Fraction(0)), rationals)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):
            c = draw(rationals)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[draw(st.integers(0, i - 1))])]
    return tuple(map(tuple, rows))


@settings(deadline=None, derandomize=True, max_examples=400)
@given(a=matrices(), data=st.data())
def test_drawn_matrices_match_reference(a, data):
    b = tuple(data.draw(st.lists(rationals, min_size=len(a), max_size=len(a))))
    assert_wrappers_match(a, b)
    # augmented: reduce over a prefix of the columns only
    width = data.draw(st.integers(0, len(a[0])))
    assert_kernel_matches([linalg._int_row(row) for row in a], width)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(n=st.integers(1, 5), data=st.data())
def test_drawn_consistent_systems_match_reference(n, data):
    # b = A x is solvable, so solve finds a solution however singular A is
    a = data.draw(matrices(n))
    x = data.draw(st.lists(rationals, min_size=n, max_size=n))
    b = linalg_reference.mat_vec(a, x)
    sol = linalg.solve(a, b)
    assert sol == linalg_reference.solve(a, b)
    assert linalg_reference.mat_vec(a, sol) == b
