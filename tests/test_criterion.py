"""Compact-Cartan membership and the extended Weyl group."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cartan_ds
from cartan_ds import (
    BadParameters,
    CartanInvolution,
    ExtendedElement,
    ParseError,
    RankMismatch,
    Weight,
    WeylElement,
    apply,
    apply_extended,
    build_default_catalog,
    build_root_system,
    compact_cartan_verdict,
    dominant_representative,
    entry_involution,
    entry_root_system,
    enumerate_weyl,
    extended_stabilizer,
    longest_element,
    theta_in_weyl,
    validate_involution,
    word_element,
)
from cartan_ds.realform import _read_matrix
from cartan_ds.rootdata import _int_mat_mul, apply_matrix
from forms import form
from weyl_reference import reference_reflection


# ---------------------------------------------------------------------------
# theta_in_weyl
# ---------------------------------------------------------------------------


def test_su21_witness_is_the_rho_reflection():
    rs, inv, _ = form("su(2,1)")
    w = theta_in_weyl(rs, inv)
    assert w is not None
    assert w.matrix == inv.theta
    assert len(w.word) == 3  # s_1 s_2 s_1, the reflection in the highest root


def test_sl3_minus_identity_is_not_in_the_weyl_group():
    rs, inv, _ = form("sl(3,R)")
    assert theta_in_weyl(rs, inv) is None


def test_compact_form_witness_is_the_identity():
    rs, inv, _ = form("compact(B2)")
    w = theta_in_weyl(rs, inv)
    assert w is not None and w.matrix == rs.identity.matrix


def test_split_b2_witness_is_the_longest_element():
    rs, inv, _ = form("split(B2)")
    w = theta_in_weyl(rs, inv)
    assert w is not None
    assert all(
        w.matrix[i][j] == (-1 if i == j else 0) for i in range(2) for j in range(2)
    )


def test_theta_in_weyl_accepts_raw_matrices():
    rs, inv, _ = form("su(2,1)")
    assert theta_in_weyl(rs, inv.theta) is not None


def test_raw_matrix_must_be_square_of_the_rank():
    rs = build_root_system("A2")
    for mat in [((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0)), ((1,), (0,))]:
        with pytest.raises(RankMismatch):
            theta_in_weyl(rs, mat)
    # a non-integral matrix is never a Weyl element, and is not an error
    assert theta_in_weyl(rs, ((Fraction(1, 2), 0), (0, 1))) is None
    assert theta_in_weyl(rs, ((-1, 1), (0, Fraction(2, 2)))) is not None


@pytest.mark.parametrize("mat", [[[-1.0]], [[True]], [["-1/0"]], ["1"]])
def test_raw_matrix_entries_must_be_rationals(mat):
    with pytest.raises(ParseError):
        theta_in_weyl(build_root_system("A1"), mat)


def test_witness_against_exhaustive_enumeration():
    """Independent oracle: brute-force matrix membership in the full group."""
    for entry in build_default_catalog():
        rs = entry_root_system(entry)
        if rs.rank > 3:
            continue
        inv = entry_involution(entry, rs=rs)
        brute = any(w.matrix == inv.theta for w in enumerate_weyl(rs))
        witness = theta_in_weyl(rs, inv)
        assert (witness is not None) == brute, entry.id
        if witness is not None:
            assert witness.matrix == inv.theta, entry.id


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2"])
def test_raw_matrix_membership_against_enumeration(cartan_type):
    """Every integer matrix with entries in [-3, 3], involution or not: a
    witness exists exactly for the group elements, and its word multiplies
    out to the matrix."""
    rs = build_root_system(cartan_type)
    group = {w.matrix for w in enumerate_weyl(rs)}
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        mat = ((a, b), (c, d))
        witness = theta_in_weyl(rs, mat)
        assert (witness is not None) == (mat in group), mat
        if witness is not None:
            product = rs.identity.matrix
            for i in witness.word:
                product = _int_mat_mul(product, word_element(rs, (i,)).matrix)
            assert witness.matrix == product == mat


# ---------------------------------------------------------------------------
# the witness stored at validation against the per-call chase
# ---------------------------------------------------------------------------


def reference_theta_in_weyl(rs, theta):
    """theta_in_weyl as it was before validation stored the witness: every
    call chases theta(rho) to the chamber and checks w theta = 1."""
    if isinstance(theta, CartanInvolution):
        mat = theta.theta
    else:
        d, mat = _read_matrix(theta, rs.rank, "matrix")
        if d != 1:
            return None
    _, w = dominant_representative(rs, apply_matrix(mat, rs.rho))
    if _int_mat_mul(w.matrix, mat) != rs.identity.matrix:
        return None
    return WeylElement(mat, tuple(reversed(w.word)))


def witness_key(w):
    return None if w is None else (w.matrix, w.word)


def assert_witness_matches_reference(rs, theta):
    expected = witness_key(reference_theta_in_weyl(rs, theta))
    assert witness_key(theta_in_weyl(rs, theta)) == expected
    if isinstance(theta, CartanInvolution):
        assert witness_key(theta.weyl_witness) == expected
        assert witness_key(theta_in_weyl(rs, theta.theta)) == expected


def test_stored_witness_matches_reference_on_the_catalog():
    # catches the word not reversed, the w theta = 1 check dropped and the
    # chase run from rho instead of theta(rho)
    found = 0
    for entry in build_default_catalog():
        rs, inv, _ = form(entry.id)
        assert_witness_matches_reference(rs, inv)
        found += inv.weyl_witness is not None
    assert 0 < found < 56


# the raw matrices of the tests above
RAW_MATRICES = [
    ((-1, 0), (0, -1)),
    ((Fraction(1, 2), 0), (0, 1)),
    ((-1, 1), (0, Fraction(2, 2))),
    *(((a, b), (c, d)) for a, b, c, d in itertools.product(range(-3, 4), repeat=4)),
]


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2"])
def test_raw_matrix_witness_matches_reference(cartan_type):
    rs = build_root_system(cartan_type)
    for mat in RAW_MATRICES:
        assert_witness_matches_reference(rs, mat)


SMALL_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2",
    "A1xA1", "A1xA2", "A1xB3", "A2xG2", "B2xB2", "A1xA1xA1xA1",
]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(cartan_type=st.sampled_from(SMALL_TYPES), data=st.data())
def test_stored_witness_matches_reference_on_drawn_involutions(cartan_type, data):
    rs = build_root_system(cartan_type)
    minus = tuple(tuple(-x for x in row) for row in rs.identity.matrix)
    kind = data.draw(st.sampled_from(["reflection", "minus_one", "minus_w0"]))
    if kind == "reflection":
        root = data.draw(st.sampled_from(sorted(rs.roots)))
        theta, _ = reference_reflection(rs, Weight(root))
    elif kind == "minus_one":
        theta = minus
    else:
        theta = _int_mat_mul(minus, longest_element(rs).matrix)
    assert_witness_matches_reference(rs, validate_involution(rs, theta))


@pytest.fixture
def chase_calls(monkeypatch):
    """Arguments of every chamber chase (``rootdata._chase``) made from then
    on, whichever package module or wrapper makes it."""
    original = cartan_ds.rootdata._chase
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cartan_ds" or name.startswith("cartan_ds."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


# chases per extended_stabilizer call: lam only when theta has a Weyl witness,
# lam and theta(lam) on sl(3,R), where it has none
STABILIZER_CHASES = {"su(2,1)": 1, "sl(3,R)": 2, "so(4,3)": 1, "split(E8)": 1}


@pytest.mark.parametrize("form_id", list(STABILIZER_CHASES))
def test_a_validated_involution_is_chased_once(chase_calls, form_id):
    rs, inv, _ = form(form_id)
    lam = rs.rho + rs.fundamental_weights[0]
    chase_calls.clear()
    again = validate_involution(rs, inv.theta)
    assert len(chase_calls) == 1 + (not again.default_compatible)
    chase_calls.clear()
    compact_cartan_verdict(rs, inv, oracle_compact_rank_equal=True)
    assert theta_in_weyl(rs, inv) is inv.weyl_witness
    assert chase_calls == []
    extended_stabilizer(rs, inv, lam)
    assert len(chase_calls) == STABILIZER_CHASES[form_id]  # nothing for theta
    chase_calls.clear()
    theta_in_weyl(rs, inv.theta)
    assert len(chase_calls) == 1  # a raw matrix still gets its own chase


# ---------------------------------------------------------------------------
# verdicts and extended elements
# ---------------------------------------------------------------------------


def test_verdict_consistency_fields():
    rs, inv, _ = form("su(2,1)")
    v = compact_cartan_verdict(rs, inv, oracle_compact_rank_equal=True)
    assert v.minus_sigma_in_weyl and v.compact_cartan
    assert v.oracle_compact_rank_equal is True and v.consistent is True
    v2 = compact_cartan_verdict(rs, inv)
    assert v2.oracle_compact_rank_equal is None and v2.consistent is None


def test_verdict_takes_a_bool_or_none_as_oracle():
    rs, inv, _ = form("su(2,1)")
    assert compact_cartan_verdict(rs, inv, False).consistent is False
    assert compact_cartan_verdict(rs, inv, True).consistent is True
    assert compact_cartan_verdict(rs, inv, None).consistent is None


@pytest.mark.parametrize("oracle", ["false", 1, 0])
def test_verdict_refuses_an_oracle_that_is_not_a_bool(oracle):
    rs, inv, _ = form("su(2,1)")
    with pytest.raises(BadParameters):
        compact_cartan_verdict(rs, inv, oracle_compact_rank_equal=oracle)


def test_apply_extended_semantics():
    rs, inv, _ = form("sl(3,R)")
    lam = rs.rho + rs.fundamental_weights[0]
    plain = ExtendedElement(weyl=word_element(rs, (0,)), twisted=False)
    assert apply_extended(inv, plain, lam) == apply(word_element(rs, (0,)), lam)
    twisted = ExtendedElement(weyl=rs.identity, twisted=True)
    assert apply_extended(inv, twisted, lam) == inv.act(lam) == -lam


def test_the_twisted_witness_acts_as_the_identity():
    # the witness w has matrix theta, so w composed with theta fixes every weight
    rs, inv, _ = form("su(2,1)")
    witness = ExtendedElement(theta_in_weyl(rs, inv), twisted=True)
    reflection = ExtendedElement(word_element(rs, (0,)), twisted=False)
    for lam in (rs.rho, *rs.fundamental_weights, Weight.of([Fraction(1, 2), -3])):
        assert apply_extended(inv, witness, lam) == lam
        assert apply_extended(inv, ExtendedElement(rs.identity, twisted=False), lam) == lam
    assert apply_extended(inv, reflection, rs.rho) != rs.rho


# ---------------------------------------------------------------------------
# extended stabilizer
# ---------------------------------------------------------------------------


def test_stabilizer_trivial_for_regular_weight_when_theta_inner():
    rs, inv, _ = form("su(2,1)")
    report = extended_stabilizer(rs, inv, rs.rho)
    assert report.is_regular and report.minus_sigma_in_weyl
    assert report.is_trivial
    assert report.weyl_fixers == ()


def test_stabilizer_sees_twisted_fixer_on_symmetric_weight():
    # on sl(3,R), rho is symmetric under the diagram flip, so the twisted
    # coset contains a fixer even though rho is regular
    rs, inv, _ = form("sl(3,R)")
    report = extended_stabilizer(rs, inv, rs.rho)
    assert report.is_regular
    assert not report.minus_sigma_in_weyl
    assert report.twisted_fixer is not None
    assert not report.is_trivial
    g = report.twisted_fixer
    assert g.twisted
    assert apply_extended(inv, g, rs.rho) == rs.rho


def test_stabilizer_trivial_for_asymmetric_regular_weight():
    rs, inv, _ = form("sl(3,R)")
    lam = rs.rho + rs.fundamental_weights[1]  # fw coords (1, 2)
    report = extended_stabilizer(rs, inv, lam)
    assert report.is_regular
    assert report.twisted_fixer is None
    assert report.is_trivial


def test_stabilizer_nontrivial_for_singular_weight():
    rs, inv, _ = form("sl(3,R)")
    report = extended_stabilizer(rs, inv, rs.fundamental_weights[0])
    assert not report.is_regular
    assert report.weyl_fixers
    assert not report.is_trivial
    for g in report.weyl_fixers:
        assert apply(g, rs.fundamental_weights[0]) == rs.fundamental_weights[0]


# ---------------------------------------------------------------------------
# strong regularity implies the membership criterion
# ---------------------------------------------------------------------------


def orbit_symmetric(rs, inv, lam):
    """Whether theta(lam) lies in lam's Weyl orbit."""
    return dominant_representative(rs, lam)[0] == dominant_representative(rs, inv.act(lam))[0]


def test_consequence_on_strongly_regular_weight():
    # rho on su(2,1) meets the hypothesis, and the witness's word is theta
    rs, inv, _ = form("su(2,1)")
    assert extended_stabilizer(rs, inv, rs.rho).is_trivial
    assert orbit_symmetric(rs, inv, rs.rho)
    witness = theta_in_weyl(rs, inv)
    assert witness is not None
    assert word_element(rs, witness.word).matrix == inv.theta


def test_consequence_vacuous_when_not_strongly_regular():
    # rho on sl(3,R) is symmetric but has a twisted fixer, and theta is not
    # a Weyl element: the implication holds because its hypothesis fails
    rs, inv, _ = form("sl(3,R)")
    assert orbit_symmetric(rs, inv, rs.rho)
    assert not extended_stabilizer(rs, inv, rs.rho).is_trivial
    assert theta_in_weyl(rs, inv) is None


def test_consequence_requires_orbit_symmetry():
    # a strongly regular weight whose theta-image leaves its orbit forces
    # nothing: theta on sl(3,R) is not a Weyl element
    rs, inv, _ = form("sl(3,R)")
    lam = rs.rho + rs.fundamental_weights[1]
    assert extended_stabilizer(rs, inv, lam).is_trivial
    assert not orbit_symmetric(rs, inv, lam)
    assert theta_in_weyl(rs, inv) is None


def test_theta_in_weyl_decides_the_coset_structure():
    # theta is a Weyl element on su(2,1), so the extended group is W; on
    # sl(3,R) it is not, and the twisted coset acts by theta itself
    rs, inv, _ = form("su(2,1)")
    assert theta_in_weyl(rs, inv).matrix == inv.theta
    rs3, inv3, _ = form("sl(3,R)")
    assert theta_in_weyl(rs3, inv3) is None
    twisted = ExtendedElement(rs3.identity, twisted=True)
    assert inv3.theta not in {w.matrix for w in enumerate_weyl(rs3)}
    for lam in (rs3.rho, *rs3.fundamental_weights):
        assert apply_extended(inv3, twisted, lam) == inv3.act(lam) == -lam


def test_implication_holds_across_small_catalog():
    """For every rank <= 2 form and a grid of weights: trivial extended
    stabilizer plus orbit symmetry forces a Weyl witness for theta, whose
    word multiplies out to theta.  A twisted fixer exists exactly when
    theta(lam) lies in lam's orbit."""
    grid = [(1, 1), (2, 1), (1, 0), (Fraction(1, 2), Fraction(3, 2))]
    implied = 0
    for entry in build_default_catalog():
        rs = entry_root_system(entry)
        if rs.rank > 2:
            continue
        inv = entry_involution(entry, rs=rs)
        for coords in grid:
            lam = rs.weight_from_fw([Fraction(c) for c in coords[: rs.rank]])
            report = extended_stabilizer(rs, inv, lam)
            dom_l, _ = dominant_representative(rs, lam)
            dom_t, _ = dominant_representative(rs, inv.act(lam))
            assert (report.twisted_fixer is not None) == (dom_l == dom_t), (entry.id, coords)
            if report.is_trivial and dom_l == dom_t:
                witness = theta_in_weyl(rs, inv)
                assert witness is not None, (entry.id, coords)
                assert word_element(rs, witness.word).matrix == inv.theta, (entry.id, coords)
                implied += 1
    assert implied > 0


def test_user_involution_from_simple_reflection():
    # theta = s_1 on A2 is conjugate to the su(2,1) involution and the
    # chamber-chase membership test must find a witness for it too
    rs = build_root_system("A2")
    inv = validate_involution(rs, word_element(rs, (0,)).matrix)
    w = theta_in_weyl(rs, inv)
    assert w is not None and w.matrix == inv.theta
