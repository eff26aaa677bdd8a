"""The per-request kernels of ``validate_involution``, ``restricted_roots``
and ``cli.encode_value`` against the references they replaced.

``realform._positive_and_simple`` reads the simple restricted roots off the
compatible simple roots, the columns of theta's chamber transform: their
distinct nonzero restrictions.  ``verify_exact_sequence`` reads the simple
vanishing roots off the same columns, as those that restrict to 0.  ``reference_simple`` is the difference search it replaced,
run on the positive restricted roots and on the positive vanishing roots.
The inputs are the catalog, drawn conjugates w theta w^-1 (which re-choose
the positive system) and every involutive automorphism w sigma, sigma a
diagram automorphism, of the simple types of rank <= 4 that validates.

``validate_involution`` looks up only theta's columns, the images of the
simple roots, in the root table; ``weyl_reference.reference_checks`` maps
every root.  On A2, B2, G2, A3, B3 and C3 every integral isometry permutes
the roots, so the matrices drawn there compare the order of the other
checks; the reflection of C4 in e1 + e2 + e3 + e4 (orthonormal coordinates)
fixes the first three simple roots and sends the fourth to no root.

``encode_value``, the ``default`` hook of ``json.dumps``, writes a Weight
from its numerators and denominator with one gcd per coordinate, and a
Fraction with ``str``; ``format_rational`` of each Fraction coordinate is the
reference.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``: the per-request-kernel group there.
"""

import itertools
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    NotRootPreserving,
    SignedSqrt,
    Weight,
    build_default_catalog,
    build_root_system,
    default_catalog_ids,
    restricted_roots,
    validate_involution,
    word_element,
)
from cartan_ds.cli import encode_value
from cartan_ds.linalg import format_rational
from cartan_ds.realform import _positive_and_simple
from cartan_ds.rootdata import _int_mat_mul
from forms import form, involutive_automorphisms
from restricted_reference import reference_simple
from weyl_reference import assert_checks_match

RANK_4_SIMPLE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


def assert_simple_match(rs, inv):
    """The chamber-read simple restricted and vanishing roots equal the
    difference search's; returns whether the positive system was re-chosen."""
    doubled = inv.doubled_restrictions
    positive, simple = _positive_and_simple(inv)
    assert simple == reference_simple(positive)
    columns = zip(*inv.chamber.matrix)
    vanishing = [b for b in columns if not any(doubled[rs.root_index[b]])]
    fixed = {rs.roots[k] for k in inv.positive_indices if not any(doubled[k])}
    assert sorted(vanishing) == reference_simple(fixed)
    return not inv.default_compatible


def test_simple_roots_match_reference_on_catalog():
    for entry in build_default_catalog():
        rs, inv, rrs = form(entry.id)
        assert not assert_simple_match(rs, inv), entry.id
        assert list(rrs.doubled_simple) == reference_simple(rrs.doubled_positive), entry.id


@settings(deadline=None, derandomize=True, max_examples=150)
@given(form_id=st.sampled_from(default_catalog_ids()), data=st.data())
def test_simple_roots_match_reference_on_drawn_conjugates(form_id, data):
    rs, inv, _ = form(form_id)
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=12))
    w, w_inverse = word_element(rs, word), word_element(rs, word[::-1])
    theta = _int_mat_mul(_int_mat_mul(w.matrix, inv.theta), w_inverse.matrix)
    conjugate = validate_involution(rs, theta)
    assert_simple_match(rs, conjugate)
    rrs = restricted_roots(rs, conjugate)
    assert list(rrs.doubled_simple) == reference_simple(rrs.doubled_positive)


def test_simple_roots_match_reference_on_involutive_automorphisms():
    counts = {}
    for t in RANK_4_SIMPLE_TYPES:
        found = [assert_simple_match(rs, inv) for rs, inv in involutive_automorphisms(t)]
        counts[t] = (len(found), sum(found))
    assert sum(n for n, _ in counts.values()) == 568
    # the positive system is re-chosen for some involution of every type but
    # A1, whose involutions are +-1
    assert [t for t, (_, rechosen) in counts.items() if not rechosen] == ["A1"], counts


def test_root_check_matches_full_table_on_all_small_int_matrices():
    for t in ("A2", "B2", "G2"):
        rs = build_root_system(t)
        outcomes = {}
        for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
            outcome = assert_checks_match(rs, [[a, b], [c, d]])
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert outcomes[None] in (6, 8) and len(outcomes) == 3, (t, outcomes)


@st.composite
def three_by_three(draw):
    """A signed Weyl element of A3, B3 or C3, or an int matrix in [-2, 2]."""
    rs = build_root_system(draw(st.sampled_from(["A3", "B3", "C3"])))
    if draw(st.booleans()):
        w = word_element(rs, draw(st.lists(st.integers(0, 2), max_size=10)))
        sign = draw(st.sampled_from([1, -1]))
        return rs, [[sign * x for x in row] for row in w.matrix]
    return rs, [draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3)) for _ in range(3)]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(case=three_by_three())
def test_root_check_matches_full_table_on_drawn_3x3_matrices(case):
    assert_checks_match(*case)


def test_root_check_reads_every_column():
    # on C4 the reflection in e1 + e2 + e3 + e4 fixes alpha_1, alpha_2 and
    # alpha_3 and sends alpha_4 = 2 e4 to -e1 - e2 - e3 + e4, which is no root
    rs = build_root_system("C4")
    theta = [[1, 0, 0, -1], [0, 1, 0, -2], [0, 0, 1, -3], [0, 0, 0, -1]]
    assert assert_checks_match(rs, theta) is NotRootPreserving


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)


def encoded(value):
    return json.loads(json.dumps(value, default=encode_value))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(coords=st.lists(rationals, min_size=1, max_size=6))
def test_weight_encoding_matches_format_rational(coords):
    w = Weight(coords)
    assert encoded(w) == [format_rational(c) for c in w.coords]
    assert encoded(coords) == [format_rational(c) for c in coords]


def test_encoding_of_integral_and_reducible_coordinates():
    w = Weight([Fraction(0), Fraction(-3), Fraction(2, 4), Fraction(-5, 6), Fraction(9, 3)])
    assert encoded(w) == ["0", "-3", "1/2", "-5/6", "3"]
    assert encoded(SignedSqrt(-1, Fraction(6, 4))) == {"sign": -1, "square": "3/2"}
