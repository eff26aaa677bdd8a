"""Root systems, Weyl groups, and orbit combinatorics."""

import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    CapExceeded,
    InvalidType,
    RankMismatch,
    Weight,
    apply,
    build_default_catalog,
    build_root_system,
    catalog_form,
    dominant_representative,
    entry_involution,
    entry_root_system,
    enumerate_weyl,
    format_cartan_type,
    longest_element,
    parse_cartan_type,
    stabilizer_generators,
    verify_exact_sequence,
    weyl_orbit,
    weyl_order,
    word_element,
)
from cartan_ds.linalg import mat_mul
from cartan_ds.rootdata import apply_matrix
import linalg_reference
from weight_reference import fw_coords, pairing

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]


def W(*coords):
    return Weight.of([Fraction(c) for c in coords])


small_weights = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    min_size=1,
    max_size=3,
)

# a branch node (D4, E6) and double bonds (F4) besides the small types
CHASE_TYPES = SMALL_TYPES + ["D4", "F4", "E6"]

chase_weights = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    min_size=1,
    max_size=6,
)


# ---------------------------------------------------------------------------
# type parsing and Cartan data
# ---------------------------------------------------------------------------


def test_parse_and_format_roundtrip():
    for text in ["A1", "B3", "G2", "A1xG2", "A2 x B2"]:
        factors = parse_cartan_type(text)
        assert parse_cartan_type(format_cartan_type(factors)) == factors


def test_parse_rejects_invalid():
    for bad in ["H3", "A0", "E9", "", "Axx", "G3", "F5"]:
        with pytest.raises(InvalidType):
            parse_cartan_type(bad)


def test_type_sequences_follow_the_string_rules():
    bad_types = [
        [("A", -1)],
        [("B", 0)],
        [("G", 3)],
        [("A", 2.7)],
        [("A", True)],
        [("A2xB", 2)],
        [("H", 3)],
    ]
    for bad in bad_types:
        for fn in (weyl_order, build_root_system):
            with pytest.raises(InvalidType):
                fn(bad)
    # lower-case families are accepted, as in strings
    assert weyl_order([("e", 6)]) == weyl_order("E6") == 51840
    assert build_root_system([("e", 6), ("a", 1)]) is build_root_system("E6xA1")


def test_low_rank_aliases_are_legal():
    assert len(build_root_system("B1").roots) == 2
    assert len(build_root_system("C1").roots) == 2
    assert build_root_system("D2").cartan_matrix == ((2, 0), (0, 2))
    assert len(build_root_system("D3").roots) == 12


def test_cartan_matrices_match_hand_values():
    assert build_root_system("A2").cartan_matrix == ((2, -1), (-1, 2))
    assert build_root_system("B2").cartan_matrix == ((2, -1), (-2, 2))
    assert build_root_system("C2").cartan_matrix == ((2, -2), (-1, 2))
    assert build_root_system("G2").cartan_matrix == ((2, -3), (-1, 2))


def test_invariant_form_is_symmetric_with_even_diagonal():
    for t in SMALL_TYPES:
        rs = build_root_system(t)
        b = rs.form
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert b[i][j] == b[j][i]
        # short roots are normalized to squared length 2
        shortest = min(pairing(rs, Weight(e), Weight(e)) for e in rs.identity.matrix)
        assert shortest == 2


def test_root_counts():
    expected = {"A1": 2, "A2": 6, "A3": 12, "B2": 8, "B3": 18, "C3": 18, "G2": 12}
    for t, n in expected.items():
        rs = build_root_system(t)
        assert len(rs.roots) == len(set(rs.roots)) == n
        # the root table: the positive roots ascending, then their negatives
        positive = rs.roots[: n // 2]
        assert list(positive) == sorted(positive) and all(min(a) >= 0 for a in positive)
        assert rs.roots[n // 2 :] == tuple(tuple(-x for x in a) for a in positive)
        assert rs.root_index == {a: k for k, a in enumerate(rs.roots)}


def test_rho_is_half_sum_of_positive_roots():
    for t in SMALL_TYPES:
        rs = build_root_system(t)
        total = Weight.zero(rs.rank)
        for a in rs.roots[: len(rs.roots) // 2]:
            total = total + Weight(a)
        assert total.scale(Fraction(1, 2)) == rs.rho


def test_fundamental_weights_are_dual_to_coroots():
    for t in SMALL_TYPES:
        rs = build_root_system(t)
        for i, fw in enumerate(rs.fundamental_weights):
            coords = fw_coords(rs, fw)
            assert all(
                coords[j] == (1 if j == i else 0) for j in range(rs.rank)
            )


CATALOG_TYPES = sorted({e.cartan_type for e in build_default_catalog()})
# the catalog's types and every other valid type that a test module names
TESTED_TYPES = sorted(
    set(CATALOG_TYPES)
    | set(
        "A1 A1xA1 A1xA1xA1xA1 A1xA2 A1xB3 A1xG2 A2 A2xA1 A2xB2 A2xB3xG2 A2xG2 A3 A4"
        " A5 A6 A7 A8 B1 B2 B2xA1 B2xB2 B3 B3xC2xA1 B4 B5 B6 B8 C1 C2 C3 C4 C5 C6"
        " D2 D3 D4 D4xE6 D5 D6 D7 D8 E6 E6xA1 E7 E8 F4 G2".split()
    )
)


@pytest.mark.parametrize("cartan_type", TESTED_TYPES)
def test_each_negative_root_sits_half_the_table_after_its_root(cartan_type):
    # validate_involution negates the first half's doubled restrictions for
    # the second half: roots[N + k] == -roots[k] for N positive roots
    rs = build_root_system(cartan_type)
    n = len(rs.roots) // 2
    assert len(rs.roots) == 2 * n
    assert all(rs.roots[n + k] == tuple(-x for x in a) for k, a in enumerate(rs.roots[:n]))


@pytest.mark.parametrize("cartan_type", CATALOG_TYPES + ["A1xA1", "A2xB2"])
def test_fundamental_weight_table_is_the_inverse_cartan_matrix(cartan_type):
    rs = build_root_system(cartan_type)
    ainv = linalg_reference.inverse(rs.cartan_matrix)
    d = rs.fw_denominator
    assert d == math.lcm(*(x.denominator for row in ainv for x in row))
    assert len(rs.fw_numerators) == rs.rank
    for i, row in enumerate(rs.fw_numerators):
        column = tuple(ainv[k][i] for k in range(rs.rank))
        assert tuple(Fraction(x, d) for x in row) == column == rs.fundamental_weights[i].coords


def reference_weight_from_fw(rs, values):
    """The sum of the fundamental weights scaled by the values."""
    out = Weight.zero(rs.rank)
    for c, fw in zip(values, rs.fundamental_weights):
        out = out + fw.scale(c)
    return out


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.sampled_from(CATALOG_TYPES), st.data())
def test_weight_from_fw_matches_the_fundamental_weight_sum(cartan_type, data):
    rs = build_root_system(cartan_type)
    rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    values = data.draw(st.lists(rationals, min_size=rs.rank, max_size=rs.rank))
    lam = rs.weight_from_fw(values)
    assert lam == reference_weight_from_fw(rs, values)
    assert rs.weight_from_fw(Weight(tuple(values))) == lam
    assert fw_coords(rs, lam) == tuple(values)


def test_weight_from_fw_refuses_a_wrong_length():
    rs = build_root_system("B3")
    for values in ([1, 0], [1, 0, 0, 0]):
        with pytest.raises(RankMismatch):
            rs.weight_from_fw(values)


def test_product_type_combines_blocks():
    rs = build_root_system("A1xG2")
    assert rs.rank == 3
    assert len(rs.roots) == 2 + 12
    assert weyl_order("A1xG2") == 2 * 12 == len(enumerate_weyl(rs))


# ---------------------------------------------------------------------------
# Weyl group structure
# ---------------------------------------------------------------------------


def test_weyl_order_formulas_match_enumeration():
    expected = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48, "G2": 12, "D4": 192}
    for t, n in expected.items():
        assert weyl_order(t) == n
        assert len(enumerate_weyl(build_root_system(t))) == n


def test_weyl_order_closed_forms():
    assert weyl_order("A6") == 5040
    assert weyl_order("B6") == 46080
    assert weyl_order("D6") == 23040
    assert weyl_order("F4") == 1152
    assert weyl_order("E8") == 696729600


def test_enumerate_weyl_cap():
    with pytest.raises(CapExceeded):
        enumerate_weyl(build_root_system("A3"), cap=5)
    b3 = build_root_system("B3")
    assert len(enumerate_weyl(b3, cap=48)) == 48
    with pytest.raises(CapExceeded, match="order 48 exceeded cap 47"):
        enumerate_weyl(b3, cap=47)
    # the order is known exactly, so an oversized group is refused at once
    e8 = build_root_system("E8")
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="order 696729600 exceeded cap 100000"):
        enumerate_weyl(e8, cap=100000)
    assert time.monotonic() - start < 1.0
    entry = catalog_form("split(E7)")
    rs = entry_root_system(entry)
    inv = entry_involution(entry, rs=rs)
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="order 2903040 exceeded cap 1000000"):
        verify_exact_sequence(rs, inv)
    assert time.monotonic() - start < 1.0


def test_simple_reflection_action():
    rs = build_root_system("B2")
    for i in range(rs.rank):
        s = word_element(rs, (i,))
        alpha = Weight(rs.identity.matrix[i])
        assert apply(s, alpha) == -alpha
        assert word_element(rs, (i, i)).matrix == rs.identity.matrix


def test_word_composition_order():
    # the word (0, 1) must mean "apply s_1 first, then s_0"
    rs = build_root_system("A2")
    s0, s1 = word_element(rs, (0,)), word_element(rs, (1,))
    w = word_element(rs, s0.word + s1.word)
    assert w.word == (0, 1)
    lam = Weight(rs.identity.matrix[1])
    assert apply(w, lam) == apply(s0, apply(s1, lam))


def test_longest_element_negates_positive_system():
    for t in SMALL_TYPES:
        rs = build_root_system(t)
        w0 = longest_element(rs)
        positive = [Weight(a) for a in rs.roots[: len(rs.roots) // 2]]
        assert {apply(w0, a) for a in positive} == {-a for a in positive}
        assert word_element(rs, w0.word + w0.word).matrix == rs.identity.matrix
        assert len(w0.word) == len(positive)


def test_longest_element_is_minus_identity_exactly_when_expected():
    minus_id_types = {"A1", "B2", "B3", "C3", "G2"}
    for t in SMALL_TYPES:
        rs = build_root_system(t)
        w0 = longest_element(rs)
        is_minus = all(
            w0.matrix[i][j] == (-1 if i == j else 0)
            for i in range(rs.rank)
            for j in range(rs.rank)
        )
        assert is_minus == (t in minus_id_types)


# ---------------------------------------------------------------------------
# orbits, dominance, stabilizers
# ---------------------------------------------------------------------------


def test_dominant_representative_hand_case():
    rs = build_root_system("A2")
    dom, w = dominant_representative(rs, -rs.rho)
    assert dom == rs.rho
    assert apply(w, -rs.rho) == rs.rho


def test_orbit_sizes_match_orbit_stabilizer():
    rs = build_root_system("A2")
    assert len(weyl_orbit(rs, rs.rho)) == 6
    assert len(weyl_orbit(rs, rs.fundamental_weights[0])) == 3
    assert len(weyl_orbit(rs, Weight.zero(2))) == 1
    b2 = build_root_system("B2")
    assert len(weyl_orbit(b2, b2.rho)) == 8


def test_weyl_orbit_cap():
    rs = build_root_system("B3")
    with pytest.raises(CapExceeded):
        weyl_orbit(rs, rs.rho, cap=7)
    # rho is regular, so its orbit has |W| = 48 elements
    assert len(weyl_orbit(rs, rs.rho, cap=48)) == 48
    with pytest.raises(CapExceeded, match="orbit size exceeded cap 47"):
        weyl_orbit(rs, rs.rho, cap=47)


def test_stabilizer_generators_fix_the_weight():
    rs = build_root_system("A2")
    lam = rs.fundamental_weights[0]
    info = stabilizer_generators(rs, lam)
    assert not info.is_regular
    assert info.gens
    for g in info.gens:
        assert apply(g, lam) == lam
    assert stabilizer_generators(rs, rs.rho).is_regular


def _group_closure(rs, gens, cap=10**6):
    seen = {rs.identity.matrix}
    frontier = [rs.identity]
    elems = {rs.identity.matrix: rs.identity}
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = word_element(rs, w.word + g.word)
                if c.matrix not in seen:
                    if len(seen) >= cap:
                        raise AssertionError("closure blew past cap")
                    seen.add(c.matrix)
                    elems[c.matrix] = c
                    nxt.append(c)
        frontier = nxt
    return elems


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2", "A3"])
def test_orbit_stabilizer_identity(cartan_type):
    rs = build_root_system(cartan_type)
    order = weyl_order(cartan_type)
    seeds = [rs.rho, rs.fundamental_weights[0], Weight.zero(rs.rank)]
    if rs.rank > 1:
        seeds.append(rs.fundamental_weights[1])
    for lam in seeds:
        orbit = weyl_orbit(rs, lam)
        stab = _group_closure(rs, stabilizer_generators(rs, lam).gens)
        assert len(orbit) * len(stab) == order


# ---------------------------------------------------------------------------
# randomized properties
# ---------------------------------------------------------------------------


def _reference_chase(rs, lam):
    """Chase that recomputes every pairing at each step; returns (dom, word)."""
    word = []
    while True:
        fws = fw_coords(rs, lam)
        i = next((j for j in range(rs.rank) if fws[j] < 0), None)
        if i is None:
            return lam, tuple(word)
        lam = linalg_reference.reflect(rs, i, lam)
        word.insert(0, i)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.sampled_from(CHASE_TYPES), chase_weights, st.integers(0, 10**6))
def test_dominant_representative_properties(cartan_type, coords, seed):
    rs = build_root_system(cartan_type)
    coords = (coords * rs.rank)[: rs.rank]
    lam = Weight.of(coords)
    dom, w = dominant_representative(rs, lam)
    assert apply(w, lam) == dom
    assert all(c >= 0 for c in fw_coords(rs, dom))
    # the word multiplies out to the matrix and matches the reference chase
    product = rs.identity.matrix
    for i in w.word:
        product = mat_mul(product, word_element(rs, (i,)).matrix)
    assert product == w.matrix
    assert _reference_chase(rs, lam) == (dom, w.word)
    # idempotence
    dom2, w2 = dominant_representative(rs, dom)
    assert dom2 == dom and w2.matrix == rs.identity.matrix
    # orbit constancy: any Weyl translate chases to the same representative
    i = seed % rs.rank
    moved = apply(word_element(rs, (i,)), lam)
    dom3, _ = dominant_representative(rs, moved)
    assert dom3 == dom


def test_dominant_representative_rejects_wrong_rank():
    rs = build_root_system("B3")
    for coords in [(1, 2), (1, 2, 3, 4)]:
        for call in (
            lambda lam: dominant_representative(rs, lam),
            lambda lam: apply(word_element(rs, (0,)), lam),
        ):
            with pytest.raises(RankMismatch):
                call(W(*coords))


@st.composite
def int_matrix_and_weight(draw):
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    mat = tuple(tuple(draw(row)) for _ in range(n))
    coords = draw(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=6),
            min_size=n,
            max_size=n,
        )
    )
    return mat, Weight(tuple(coords))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(int_matrix_and_weight())
def test_apply_matrix_matches_rational_mat_vec(case):
    mat, lam = case
    out = apply_matrix(mat, lam)
    assert out.coords == linalg_reference.mat_vec(mat, lam.coords)
    assert all(type(c) is Fraction for c in out.coords)
    for wrong in (lam.coords + (Fraction(1),), lam.coords[1:]):
        with pytest.raises(RankMismatch):
            apply_matrix(mat, Weight(wrong))


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_word_built_inverse_matches_rational_inverse(cartan_type):
    rs = build_root_system(cartan_type)
    for w in enumerate_weyl(rs):
        winv = word_element(rs, w.word[::-1])
        assert winv.word == w.word[::-1]
        assert winv.matrix == linalg_reference.inverse(w.matrix)
        assert word_element(rs, w.word + winv.word).matrix == rs.identity.matrix
        assert word_element(rs, w.word).matrix == w.matrix
    for bad in [(rs.rank,), (0, -1)]:
        with pytest.raises(RankMismatch):
            word_element(rs, bad)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.sampled_from(SMALL_TYPES), small_weights)
def test_fw_coordinate_roundtrip(cartan_type, coords):
    rs = build_root_system(cartan_type)
    coords = (coords * rs.rank)[: rs.rank]
    lam = Weight.of(coords)
    assert rs.weight_from_fw(fw_coords(rs, lam)) == lam


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.sampled_from(["A2", "B2", "G2"]), small_weights)
def test_orbit_is_closed_under_generators(cartan_type, coords):
    rs = build_root_system(cartan_type)
    coords = (coords * rs.rank)[: rs.rank]
    lam = Weight.of(coords)
    orbit = weyl_orbit(rs, lam)
    for nu in orbit:
        for i in range(rs.rank):
            assert apply(word_element(rs, (i,)), nu) in orbit


def test_weight_arithmetic():
    a = W(1, 2)
    b = W("1/2", -1)
    assert (a + b).coords == (Fraction(3, 2), Fraction(1))
    assert (a - b).coords == (Fraction(1, 2), Fraction(3))
    assert (-a).coords == (Fraction(-1), Fraction(-2))
    assert a.scale(Fraction(2)).coords == (Fraction(2), Fraction(4))
    assert Weight.zero(2).coords == (Fraction(0), Fraction(0))
    assert a != b and hash(W(1, 2)) == hash(a)


@pytest.mark.parametrize(
    "coords",
    [(True, False), (1, False), (0.5, 0), (1, 2.0), ("1", 0), (Fraction(1, 2), None)],
)
def test_weight_refuses_non_rational_coordinates(coords):
    # a bool is no coordinate, though True == 1; a float or a string is none either
    with pytest.raises(TypeError):
        Weight(coords)


@pytest.mark.parametrize("values", [(True, False), (0.5, 0)])
def test_weight_of_refuses_bool_and_float(values):
    with pytest.raises(TypeError):
        Weight.of(values)


def test_weight_is_immutable_and_pickles():
    lam = W("1/2", -3)
    with pytest.raises(AttributeError):
        lam.den = 1
    assert lam == W("1/2", -3)
    assert pickle.loads(pickle.dumps(lam)) == lam
