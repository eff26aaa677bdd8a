"""Weyl elements, chamber chases, root reflections, involution checks and
weight spectra against the references they replaced.

``word_element`` walks the root index of each simple root alpha_j through
``RootSystem.reflections``, last letter first, and column j of the matrix is
the root reached; ``_chase`` finds the lowest-index negative pairing with a
plain scan.  Their references are the row update of the matrix for every
letter and the chase that takes the first negative pairing from a generator,
both reading the Cartan matrix.  They are compared on the word of every
``enumerate_weyl`` element of the catalog types with |W| <= 1152, on drawn
words over all catalog types (empty, repeated letters, non-reduced, up to
2|positive roots| letters) and on drawn int vectors, zero and singular ones
among them.

``word_element`` of the word u^-1 s_i u, u the walk of a root down to a
simple root alpha_i, is the reflection in that root; the reference is the
Fraction column build of ``weyl_reference.reference_reflection``.
``validate_involution`` scales a raw matrix once by the lcm d of its
denominators and tests t^2 = d^2 1, t^T F t = d^2 F and d = 1 on ints;
``weight_spectrum`` closes int tuples.  The references below are the
Fraction matrix products with an integrality test
(``weyl_reference.reference_checks``), and the closure through the Fraction
simple reflection of ``linalg_reference``.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``: its groups of Weyl elements, chases and root
reflections, and of the involution checks and the weight spectrum.  Without
its bounds check ``word_element`` would read the last table row for the
word (0, -1) in place of raising RankMismatch.  The two root-walk
mutations listed here before (a reflection word that is not mirrored, and a
walk at the last positive pairing in place of the first) were mutations of
``RootSystem.reflection_in_root``, which is deleted; the walk is now the
reference's own.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    CapExceeded,
    NotInvolution,
    NotIsometric,
    NotRootPreserving,
    RankMismatch,
    Weight,
    build_default_catalog,
    build_root_system,
    longest_element,
    validate_involution,
    weight_spectrum,
    word_element,
)
from cartan_ds.rootdata import WeylElement, _chase, apply_matrix, closure, enumerate_weyl
from forms import random_matrix
import linalg_reference
from weight_reference import fw_coords
from weyl_reference import assert_checks_match, reference_reflection

CATALOG_TYPES = sorted({entry.cartan_type for entry in build_default_catalog()})


def reference_word_element(rs, word):
    """s_{word[0]} ... s_{word[-1]} by a row update of the matrix for every
    letter, last letter first."""
    if any(not 0 <= i < rs.rank for i in word):
        raise RankMismatch("word names a simple reflection outside the rank")
    a = rs.cartan_matrix
    rows = list(rs.identity.matrix)
    for i in reversed(word):
        # s_i . m changes row i only, to -m[i] - sum of A[i][k] m[k], k != i
        row = [-x for x in rows[i]]
        for k in range(rs.rank):
            if k != i and a[i][k]:
                row = [x - a[i][k] * y for x, y in zip(row, rows[k])]
        rows[i] = tuple(row)
    return WeylElement(tuple(rows), tuple(word))


def reference_chase(rs, coords):
    """The chase that takes the first negative pairing from a generator."""
    a = rs.cartan_matrix
    fws = [sum(x * y for x, y in zip(row, coords)) for row in a]
    word = []
    while True:
        i = next((j for j, f in enumerate(fws) if f < 0), None)
        if i is None:
            return fws, word
        c = fws[i]
        coords[i] -= c
        fws[i] = -c
        for j in range(rs.rank):
            if j != i:
                fws[j] -= a[j][i] * c
        word.append(i)


def assert_word_matches_reference(rs, word):
    w = word_element(rs, word)
    expected = reference_word_element(rs, word)
    assert (w.matrix, w.word) == (expected.matrix, expected.word), word
    assert all(type(x) is int for row in w.matrix for x in row)


@pytest.mark.parametrize(
    "cartan_type", [t for t in CATALOG_TYPES if build_root_system(t).weyl_order <= 1152]
)
def test_word_element_matches_row_update_on_every_group_element(cartan_type):
    rs = build_root_system(cartan_type)
    for w in enumerate_weyl(rs):
        assert_word_matches_reference(rs, w.word)
        assert_word_matches_reference(rs, w.word[::-1])


@st.composite
def type_and_word(draw):
    rs = build_root_system(draw(st.sampled_from(CATALOG_TYPES)))
    letter = st.integers(0, rs.rank - 1)
    longest = len(rs.roots)  # twice the number of positive roots
    kind = draw(st.sampled_from(["any", "repeated", "doubled"]))
    if kind == "repeated":
        word = [draw(letter)] * draw(st.integers(0, longest))
    else:
        word = draw(st.lists(letter, max_size=longest))
        if kind == "doubled":
            # u u^-1 and u s_i s_i are words of the identity and of u, never reduced
            word = (word + word[::-1])[:longest]
    return rs, word


@settings(deadline=None, derandomize=True, max_examples=300)
@given(type_and_word())
def test_word_element_matches_row_update_on_drawn_words(case):
    rs, word = case
    assert_word_matches_reference(rs, word)
    assert_word_matches_reference(rs, tuple(word))


@pytest.mark.parametrize("cartan_type", CATALOG_TYPES)
def test_word_element_edge_words(cartan_type):
    rs = build_root_system(cartan_type)
    npos = len(rs.roots) // 2
    for word in [(), (0,), (0, 0), (rs.rank - 1,) * 3, tuple(range(rs.rank)) * 2]:
        assert_word_matches_reference(rs, word)
    assert word_element(rs, ()).matrix == rs.identity.matrix
    longest = longest_element(rs)
    assert len(longest.word) == npos
    assert_word_matches_reference(rs, longest.word + longest.word)
    for bad in [(rs.rank,), (0, -1), (-1,), (0, rs.rank, 0)]:
        with pytest.raises(RankMismatch):
            word_element(rs, bad)


@pytest.mark.parametrize("cartan_type", CATALOG_TYPES + ["A1xA1", "A2xB2"])
def test_reflection_tables_are_involutive_permutations(cartan_type):
    rs = build_root_system(cartan_type)
    n = len(rs.roots)
    assert len(rs.reflections) == rs.rank
    for i, table in enumerate(rs.reflections):
        assert sorted(table) == list(range(n))
        assert all(table[table[k]] == k for k in range(n))
        alpha = rs.root_index[rs.identity.matrix[i]]
        assert rs.roots[table[alpha]] == tuple(-x for x in rs.roots[alpha])
        for k, root in enumerate(rs.roots):
            image = linalg_reference.reflect(rs, i, Weight.of(root))
            assert Weight.of(rs.roots[table[k]]) == image


@st.composite
def type_and_vector(draw):
    rs = build_root_system(draw(st.sampled_from(CATALOG_TYPES)))
    kind = draw(st.sampled_from(["any", "zero", "singular"]))
    if kind == "zero":
        return rs, kind, [0] * rs.rank
    if kind == "any":
        return rs, kind, draw(st.lists(st.integers(-9, 9), min_size=rs.rank, max_size=rs.rank))
    # a dominant weight on a wall, scaled to ints and moved off the chamber
    fw = draw(st.lists(st.integers(0, 3), min_size=rs.rank, max_size=rs.rank))
    fw[draw(st.integers(0, rs.rank - 1))] = 0
    lam = rs.weight_from_fw(fw)
    lam = lam.scale(math.lcm(*(c.denominator for c in lam.coords)))
    word = draw(st.lists(st.integers(0, rs.rank - 1), max_size=len(rs.roots) // 2))
    image = apply_matrix(reference_word_element(rs, word).matrix, lam)
    return rs, kind, [int(c) for c in image.coords]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(type_and_vector())
def test_chase_matches_generator_scan_on_drawn_vectors(case):
    rs, kind, coords = case
    moved, expected_moved = list(coords), list(coords)
    fws, word = _chase(rs, moved)
    expected = reference_chase(rs, expected_moved)
    assert (moved, fws, word) == (expected_moved, *expected), coords
    assert all(f >= 0 for f in fws)
    if kind != "any":
        assert 0 in fws


@pytest.mark.parametrize("cartan_type", CATALOG_TYPES + ["A1xA1", "A2xB2"])
def test_word_element_of_a_root_walk_is_the_reflection_in_the_root(cartan_type):
    rs = build_root_system(cartan_type)
    for root in rs.roots:
        matrix, word = reference_reflection(rs, Weight(root))
        assert word_element(rs, word).matrix == matrix, root


def test_reference_covers_every_catalog_root():
    assert len(CATALOG_TYPES) == 20
    assert sum(len(build_root_system(t).roots) for t in CATALOG_TYPES) == 698


def reference_spectrum(rs, mu, cap):
    def steps(nu):
        pairings = fw_coords(rs, nu)
        for i in range(rs.rank):
            yield linalg_reference.reflect(rs, i, nu)
            if pairings[i] > 0:
                yield nu - Weight(rs.identity.matrix[i])

    return frozenset(closure((mu,), steps, cap, "weight spectrum"))


@pytest.mark.parametrize(
    "cartan_type", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "A1xA1", "A1xG2"]
)
def test_weight_spectrum_matches_fraction_reference(cartan_type):
    rs = build_root_system(cartan_type)
    for mu in [rs.rho, rs.rho.scale(2), *rs.fundamental_weights]:
        expected = reference_spectrum(rs, mu, 10**6)
        assert weight_spectrum(rs, mu, cap=len(expected)) == expected
        message = f"^weight spectrum exceeded cap {len(expected) - 1}$"
        for spectrum in (weight_spectrum, reference_spectrum):
            with pytest.raises(CapExceeded, match=message):
                spectrum(rs, mu, len(expected) - 1)


def test_weight_spectrum_of_a_fractional_weight():
    # the fundamental weight (2/3, 1/3) of A2 is closed at scale 3
    rs = build_root_system("A2")
    mu = rs.fundamental_weights[0]
    assert mu.coords == (Fraction(2, 3), Fraction(1, 3))
    spectrum = weight_spectrum(rs, mu)
    assert spectrum == reference_spectrum(rs, mu, 100)
    assert len(spectrum) == 3


@pytest.mark.parametrize(
    "cartan_type", CATALOG_TYPES[: CATALOG_TYPES.index("D4") + 1] + ["A1xA1", "G2"]
)
def test_validate_involution_matches_reference_on_signed_weyl_elements(cartan_type):
    rs = build_root_system(cartan_type)
    outcomes = set()
    for w in enumerate_weyl(rs):
        for sign in (1, -1):
            outcomes.add(assert_checks_match(rs, [[sign * x for x in row] for row in w.matrix]))
    # +-w passes when w is an involution; A1 and A1xA1 have no other elements
    assert None in outcomes and outcomes <= {None, NotInvolution}


def test_validate_involution_matches_reference_on_random_rational_matrices():
    rng = random.Random(20)
    types = [build_root_system(t) for t in ["A1", "A1xA1", "A2", "B2", "G2", "A3", "B3"]]
    outcomes = {}
    for _ in range(2400):
        rs = rng.choice(types)
        outcome = assert_checks_match(rs, random_matrix(rng, rs))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # every check is reached, and some matrices pass them all
    assert set(outcomes) == {None, NotInvolution, NotIsometric, NotRootPreserving}
    assert min(outcomes.values()) >= 20


def test_isometric_involution_off_the_root_lattice():
    rs = build_root_system("A1xA1")
    theta = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
    assert assert_checks_match(rs, theta) is NotRootPreserving
    with pytest.raises(NotRootPreserving, match="^matrix does not preserve the root lattice$"):
        validate_involution(rs, theta)
