"""Cartan involutions, restricted root systems, and the exact sequence."""

import math
import random
from fractions import Fraction

import pytest

from cartan_ds import (
    CapExceeded,
    FormalDSDatum,
    NotInvolution,
    NotIsometric,
    NotRootPreserving,
    ParseError,
    PreconditionFailed,
    RankMismatch,
    Weight,
    apply,
    build_default_catalog,
    build_root_system,
    admissible_exponents,
    antidominant_restriction,
    classify_restricted_type,
    compact_cartan_verdict,
    extended_stabilizer,
    longest_element,
    multiplicity_identity_holds,
    orbit_plus,
    restricted_roots,
    strong_regularization,
    theta_in_weyl,
    validate_involution,
    verify_exact_sequence,
    word_element,
)
from cartan_ds import linalg
from cartan_ds.realform import _eigenbasis, _positive_and_simple, _read_matrix
from forms import form
import linalg_reference
from weight_reference import restricted_weights

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_rejects_wrong_size():
    rs = build_root_system("A2")
    for mat in [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0))]:
        with pytest.raises(RankMismatch):
            validate_involution(rs, mat)


@pytest.mark.parametrize("mat", [[[1.0]], [[True]], [["1,0"]], [[None]], ["1"]])
def test_validate_rejects_entries_that_are_no_rationals(mat):
    # a float or a bool is no matrix entry, even when it equals one, and a
    # string is no row: "1" would otherwise read as the row (1,)
    with pytest.raises(ParseError):
        validate_involution(build_root_system("A1"), mat)


def reference_read_matrix(rows, rank, what):
    """_read_matrix through Fraction for every matrix, int ones included."""
    try:
        rows = tuple(rows)
        if not all(isinstance(row, (list, tuple)) for row in rows):
            raise TypeError("a matrix row must be a list or a tuple")
        mat = linalg.matrix(rows)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: {exc}") from exc
    if len(mat) != rank or any(len(row) != rank for row in mat):
        raise RankMismatch(f"{what} size does not match rank")
    d = math.lcm(*(x.denominator for row in mat for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in mat)


def read_both(rows, rank=2):
    """_read_matrix and its Fraction reference: the same result, or the same
    error with the same message; returns the result or the error type."""
    try:
        expected = reference_read_matrix(rows, rank, "matrix")
    except (ParseError, RankMismatch) as exc:
        with pytest.raises(type(exc)) as info:
            _read_matrix(rows, rank, "matrix")
        assert str(info.value) == str(exc)
        return type(exc)
    d, mat = _read_matrix(rows, rank, "matrix")
    assert (d, mat) == expected
    assert all(type(x) is int for row in mat for x in row) and type(d) is int
    return d, mat


def test_read_matrix_takes_an_int_matrix_as_it_is():
    assert read_both([[0, -1], [-1, 0]]) == (1, ((0, -1), (-1, 0)))
    assert read_both(((2, 0), (0, 2))) == (1, ((2, 0), (0, 2)))


def test_read_matrix_refuses_a_bool_in_an_int_matrix():
    assert read_both([[1, 0], [0, True]]) is ParseError


def test_read_matrix_reads_a_rational_string_among_ints():
    assert read_both([[1, "1/2"], [0, 1]]) == (2, ((2, 1), (0, 2)))
    assert read_both([[1, "1/0"], [0, 1]]) is ParseError


def test_read_matrix_refuses_a_ragged_int_matrix():
    assert read_both([[1, 0], [0]]) is RankMismatch
    assert read_both([[1, 0, 0], [0, 1, 0]]) is RankMismatch


def test_read_matrix_refuses_a_row_that_is_no_list():
    assert read_both([[1, 0], 5]) is ParseError
    assert read_both([[1, 0], "01"]) is ParseError
    assert read_both(7) is ParseError


def test_validate_rejects_non_involution():
    rs = build_root_system("A2")
    with pytest.raises(NotInvolution):
        validate_involution(rs, ((1, 1), (0, 1)))


def test_validate_rejects_non_isometry():
    rs = build_root_system("A2")
    # diag(1, -1) squares to the identity but distorts the invariant form
    with pytest.raises(NotIsometric):
        validate_involution(rs, ((1, 0), (0, -1)))


def test_validate_rejects_non_root_preserving():
    rs = build_root_system("D2")
    # an honest euclidean reflection that misses the root lattice
    theta = (
        (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(4, 5), Fraction(-3, 5)),
    )
    with pytest.raises(NotRootPreserving):
        validate_involution(rs, theta)


def test_validate_accepts_identity_and_minus_identity():
    rs = build_root_system("B2")
    plus = validate_involution(rs, ((1, 0), (0, 1)))
    minus = validate_involution(rs, ((-1, 0), (0, -1)))
    assert plus.split_rank == 0 and len(_eigenbasis(plus.theta, +1)) == 2
    assert minus.split_rank == 2 and len(_eigenbasis(minus.theta, +1)) == 0


# ---------------------------------------------------------------------------
# eigenspaces and restriction
# ---------------------------------------------------------------------------


def test_restriction_is_projection_onto_split_part():
    rs, inv, _ = form("su(2,1)")
    for lam in [*map(Weight, rs.roots), rs.rho, rs.fundamental_weights[0]]:
        bar = inv.restrict(lam)
        # theta acts by -1 on the restriction
        assert inv.act(bar) == -bar
        # restricting twice changes nothing
        assert inv.restrict(bar) == bar


def test_integer_actions_match_rational_reference_across_catalog():
    """apply, act and restrict against Fraction linalg_reference.mat_vec."""
    rng = random.Random(2007)
    for entry in build_default_catalog():
        rs, inv, _ = form(entry.id)
        w0 = longest_element(rs)
        weights = [rs.rho, *rs.fundamental_weights] + [
            Weight.of(Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(rs.rank))
            for _ in range(3)
        ]
        for lam in weights:
            theta_lam = linalg_reference.mat_vec(inv.theta, lam.coords)
            assert inv.act(lam).coords == theta_lam, entry.id
            assert inv.restrict(lam).coords == tuple(
                (c - t) * HALF for c, t in zip(lam.coords, theta_lam)
            ), entry.id
            for w in (w0, inv.chamber):
                assert apply(w, lam).coords == linalg_reference.mat_vec(w.matrix, lam.coords)


def test_from_split_coords():
    rs, inv, _ = form("su(3,1)")
    assert inv.split_rank == 1
    b = inv.split_basis[0]
    assert inv.from_split_coords([Fraction(-7, 3)]) == b.scale(Fraction(-7, 3))
    with pytest.raises(RankMismatch):
        inv.from_split_coords([1, 2])


# ---------------------------------------------------------------------------
# compatible positive system
# ---------------------------------------------------------------------------


def test_default_positive_system_kept_when_compatible():
    _, inv, _ = form("su(2,1)")
    assert inv.default_compatible
    assert inv.chamber.word == ()


def test_positive_system_rechosen_for_simple_reflection_involution():
    # theta = s_1 on A2 restricts the default positives onto {a1, -a1/2, a1/2},
    # which contains an opposite pair, so a new chamber must be chosen.
    rs = build_root_system("A2")
    s1 = word_element(rs, (0,))
    inv = validate_involution(rs, s1.matrix)
    assert not inv.default_compatible
    assert inv.chamber.matrix == word_element(rs, (1,)).matrix
    rrs = restricted_roots(rs, inv)
    views = restricted_weights(rrs)
    alpha1 = Weight(rs.identity.matrix[0])
    assert views.positive_restricted == frozenset({alpha1, alpha1.scale(HALF)})
    assert views.multiplicity[alpha1.scale(HALF)] == 2
    assert views.multiplicity[alpha1] == 1
    assert classify_restricted_type(rrs) == "BC1"


# ---------------------------------------------------------------------------
# restricted root data on frozen forms
# ---------------------------------------------------------------------------


def test_su21_restricted_data():
    rs, inv, rrs = form("su(2,1)")
    views = restricted_weights(rrs)
    half_rho = rs.rho.scale(HALF)
    assert views.positive_restricted == frozenset({half_rho, rs.rho})
    assert views.multiplicity[half_rho] == 2
    assert views.multiplicity[rs.rho] == 1
    assert views.vanishing_roots == frozenset()
    assert views.simple_restricted == (half_rho,)
    # indivisible = roots whose half is not itself a restricted root
    assert views.indivisible == frozenset({half_rho, -half_rho})
    assert classify_restricted_type(rrs) == "BC1"
    assert multiplicity_identity_holds(rrs)
    # rho_a = (2 * rho/2 + 1 * rho) / 2 = rho
    assert rrs.rho_restricted == rs.rho


def test_so41_restricted_data():
    rs, inv, rrs = form("so(4,1)")
    views = restricted_weights(rrs)
    assert inv.split_rank == 1
    assert len(views.vanishing_roots) == 2
    pos = list(views.positive_restricted)
    assert len(pos) == 1
    assert views.multiplicity[pos[0]] == 3
    assert classify_restricted_type(rrs) == "A1"


def test_compact_form_has_no_restricted_roots():
    rs, inv, rrs = form("compact(A2)")
    views = restricted_weights(rrs)
    assert views.multiplicity == {}
    assert views.vanishing_roots == frozenset(map(Weight, rs.roots))
    assert classify_restricted_type(rrs) == "0"


def test_split_form_restricted_system_is_the_full_system():
    rs, inv, rrs = form("split(G2)")
    views = restricted_weights(rrs)
    assert frozenset(views.multiplicity) == frozenset(map(Weight, rs.roots))
    assert all(m == 1 for m in views.multiplicity.values())
    assert views.vanishing_roots == frozenset()
    assert classify_restricted_type(rrs) == "G2"
    assert rrs.rho_restricted == rs.rho


@pytest.mark.parametrize(
    "form_id,label",
    [
        ("sl(2,R)", "A1"),
        ("sl(4,R)", "A3"),
        ("su(1,1)", "A1"),
        ("su(2,1)", "BC1"),
        ("su(3,1)", "BC1"),
        ("su(2,2)", "B2"),  # rank-2 systems with two lengths use the B label
        ("su(3,2)", "BC2"),
        ("so(3,2)", "B2"),
        ("so(4,2)", "B2"),
        ("so(3,3)", "A3"),
        ("so(5,3)", "B3"),
        ("so(4,4)", "D4"),
        ("sp(3,R)", "C3"),
        ("split(F4)", "F4"),
        ("compact(B3)", "0"),
    ],
)
def test_restricted_type_classification(form_id, label):
    rs, inv, rrs = form(form_id)
    assert classify_restricted_type(rrs) == label


def test_multiplicity_identity_across_whole_catalog():
    for entry in build_default_catalog():
        rs, inv, rrs = form(entry.id)
        assert multiplicity_identity_holds(rrs), entry.id
        # the simple restricted roots are a basis of the split part
        assert len(rrs.doubled_simple) == inv.split_rank


def test_stored_simple_restricted_roots_match_the_chamber_read():
    # classify_restricted_type reads doubled_simple and doubled_positive
    # instead of running _positive_and_simple again
    for entry in build_default_catalog():
        rs, inv, rrs = form(entry.id)
        positive, simple = _positive_and_simple(inv)
        assert rrs.doubled_simple == tuple(simple), entry.id
        assert rrs.doubled_positive == positive, entry.id
        assert restricted_weights(rrs).simple_restricted == tuple(
            Weight.of(d).scale(HALF) for d in simple
        )


# ---------------------------------------------------------------------------
# exact sequence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "form_id,orders",
    [
        ("sl(2,R)", (2, 1, 2)),
        ("su(2,1)", (2, 1, 2)),
        ("compact(A2)", (6, 6, 1)),
        ("split(B2)", (8, 1, 8)),
        ("so(4,1)", (4, 2, 2)),
    ],
)
def test_exact_sequence_orders(form_id, orders):
    rs, inv, _ = form(form_id)
    report = verify_exact_sequence(rs, inv)
    assert report.passed
    assert (
        report.order_commutant,
        report.order_vanishing,
        report.order_restricted,
    ) == orders
    assert report.kernel_matches and report.image_matches and report.order_identity


def test_exact_sequence_for_rechosen_chamber():
    # theta = s_1 on A2: the commutant of s_1 is {1, s_1}
    rs = build_root_system("A2")
    inv = validate_involution(rs, word_element(rs, (0,)).matrix)
    report = verify_exact_sequence(rs, inv)
    assert report.passed
    assert (
        report.order_commutant,
        report.order_vanishing,
        report.order_restricted,
    ) == (2, 1, 2)


def test_exact_sequence_refuses_restricted_roots_that_are_no_root_system():
    # a valid involution of A3 whose three positive restricted roots have
    # angles no root system has (classified "?2"): its restricted reflections
    # do not permute them, so they lie outside the image of the commutant
    rs = build_root_system("A3")
    inv = validate_involution(rs, ((1, -1, 0), (0, -1, 0), (0, 0, -1)))
    assert classify_restricted_type(restricted_roots(rs, inv)) == "?2"
    with pytest.raises(PreconditionFailed, match="not a root system"):
        verify_exact_sequence(rs, inv)


@pytest.mark.parametrize(
    "cartan_type,theta,count,label",
    [("G2", ((2, -3), (1, -2)), 6, "?1"), ("B3", ((1, -1, 0), (0, -1, 0), (0, 0, -1)), 10, "?2")],
)
def test_non_reduced_restricted_roots_short_of_bc_are_unlabeled(cartan_type, theta, count, label):
    # twice some restricted root is one, but BC_r has 2r(r+1) roots: G2 gives
    # +-v/2, +-v, +-3v/2
    rs = build_root_system(cartan_type)
    rrs = restricted_roots(rs, validate_involution(rs, theta))
    assert len(rrs.doubled_multiplicity) == count
    assert classify_restricted_type(rrs) == label


def test_exact_sequence_cap():
    rs, inv, _ = form("split(B3)")
    with pytest.raises(CapExceeded):
        verify_exact_sequence(rs, inv, cap=10)


def test_involution_from_another_root_system_is_refused():
    # B2's theta = -1 is a Weyl element there; on A2 the same matrix is not an
    # involution of the roots at all, and answers on A2 would be wrong
    b2, a2 = build_root_system("B2"), build_root_system("A2")
    minus_one = validate_involution(b2, [[-1, 0], [0, -1]])
    assert compact_cartan_verdict(b2, minus_one).compact_cartan is True
    swap = validate_involution(build_root_system("A1xA1"), [[0, 1], [1, 0]])
    rrs = restricted_roots(b2, minus_one)
    # a chamber of another type, or of another involution of the same type
    sl3_rs, sl3, _ = form("sl(3,R)")
    b3_chamber = form("split(B3)")[2]
    su21_chamber = form("su(2,1)")[2]
    datum = FormalDSDatum(weight=a2.rho, exponents=frozenset())
    calls = [
        lambda: restricted_roots(a2, minus_one),
        lambda: verify_exact_sequence(a2, minus_one),
        lambda: strong_regularization(a2, minus_one, rrs, datum),
        lambda: admissible_exponents(a2, minus_one, rrs, a2.rho),
        lambda: compact_cartan_verdict(a2, minus_one),
        lambda: extended_stabilizer(b2, swap, b2.rho),
        lambda: theta_in_weyl(a2, minus_one),
        lambda: antidominant_restriction(a2, minus_one, a2.rho),
        lambda: admissible_exponents(sl3_rs, sl3, b3_chamber, sl3_rs.rho),
        lambda: admissible_exponents(sl3_rs, sl3, su21_chamber, sl3_rs.rho),
        lambda: orbit_plus(sl3_rs, sl3, sl3_rs.rho, chamber=su21_chamber),
    ]
    for call in calls:
        with pytest.raises(PreconditionFailed, match="validated on another root system"):
            call()
    # a raw matrix carries no root system and is still read on the one given
    assert theta_in_weyl(a2, [[-1, 0], [0, -1]]) is None
