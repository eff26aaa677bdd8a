"""The int stabilizer chases against the matrix-building chases they replaced.

``extended_stabilizer`` scales the weight to ints once and chases it to the
dominant chamber with no matrix (``rootdata._chase``); the walls are the
zeros of its dominant fundamental coordinates.  When theta has a Weyl
witness, that witness, twisted, is the twisted fixer of every weight and no
second chase runs.  Otherwise it takes the involution image on ints and
chases it too, and the image lies in the weight's Weyl orbit when both
chases end at the same fundamental coordinates.  Weyl elements are built
from the chase words only for the fixers returned: with chase words u and v,
the fixer of wall i is u + [i] + u reversed and the twisted fixer is u + v
reversed.  ``stabilizer_generators`` shares that kernel
(``rootdata._stabilizer_chase``), and ``dominant_representative`` builds its
element from the chase word.

The references below are those functions as they were: a chase that updates
the rows of its element's matrix at every step, walls read back from the
Fraction dominant weight, fixers built by ``word_element`` from the words of
the reference chase, and θλ taken on the Fraction weight and chased again,
also when theta has a witness.  They are compared on every catalog form
with drawn weights (many of them singular), on the membership_stream inputs
of two seeds and on hypothesis-drawn weights: the fixers' matrices and
words, ``is_regular``, ``is_trivial`` and ``witness``, and
``stabilizer_generators``' ``gens``, ``dominant`` and ``to_dominant``.  The
twisted fixer's matrix, word and flag are compared when theta has no
witness; when it has one, the fixer is the witness, twisted, the reference
finds a fixer too, and for a regular weight the reference's has theta's
matrix.  Every twisted fixer returned fixes the weight.

The mutations these tests catch are the ``STABILIZER`` group of
``scripts/mutants.py``.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    Weight,
    WeylElement,
    apply_extended,
    build_default_catalog,
    dominant_representative,
    extended_stabilizer,
    stabilizer_generators,
    word_element,
)
from cartan_ds.rootdata import _weight
from forms import form

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import MembershipStream, load_entries

CATALOG_IDS = [e.id for e in build_default_catalog()]


def reference_dominant_representative(rs, lam):
    """The chase that builds its element's matrix by row updates at every step."""
    coords = list(lam.nums)
    a = rs.cartan_matrix
    rows = list(rs.identity.matrix)
    fws = [sum(x * y for x, y in zip(row, coords)) for row in a]
    word = []
    while True:
        i = next((j for j, f in enumerate(fws) if f < 0), None)
        if i is None:
            return _weight(coords, lam.den), WeylElement(tuple(rows), tuple(reversed(word)))
        c = fws[i]
        coords[i] -= c
        fws[i] = -c
        for j in range(rs.rank):
            if j != i:
                fws[j] -= a[j][i] * c
        word.append(i)
        row = [-x for x in rows[i]]
        for k in range(rs.rank):
            if k != i and a[i][k]:
                row = [x - a[i][k] * y for x, y in zip(row, rows[k])]
        rows[i] = tuple(row)


def reference_stabilizer_generators(rs, lam):
    """Walls of the Fraction dominant weight; fixers w^-1 s_i w from their words."""
    dom, w = reference_dominant_representative(rs, lam)
    coords = dom.nums
    walls = [
        i for i, row in enumerate(rs.cartan_matrix)
        if sum(a * x for a, x in zip(row, coords)) == 0
    ]
    gens = ()
    if walls:
        gens = tuple(word_element(rs, w.word[::-1] + (i,) + w.word) for i in walls)
    return gens, not gens, dom, w


def reference_extended_stabilizer(rs, inv, lam):
    """The extended stabilizer from two dominant_representative chases."""
    gens, is_regular, dom, w = reference_stabilizer_generators(rs, lam)
    dom_t, w_t = reference_dominant_representative(rs, inv.act(lam))
    witness = inv.weyl_witness
    twisted = None
    if dom == dom_t:
        twisted = word_element(rs, w.word[::-1] + w_t.word)
    trivial = is_regular if witness is not None else is_regular and twisted is None
    return gens, is_regular, twisted, witness, trivial


def elements(ws):
    return [(w.matrix, w.word) for w in ws]


def assert_matches_reference(rs, inv, lam):
    """Compare both functions with their references; return whether lam is
    singular and whether the reference chases find it a twisted fixer while
    theta has no witness."""
    gens, is_regular, dom, w = reference_stabilizer_generators(rs, lam)
    info = stabilizer_generators(rs, lam)
    assert elements(info.gens) == elements(gens), lam
    assert (info.is_regular, info.dominant) == (is_regular, dom), lam
    assert elements([info.to_dominant]) == elements([w]), lam
    assert elements([dominant_representative(rs, lam)[1]]) == elements([w]), lam

    gens, is_regular, twisted, witness, trivial = reference_extended_stabilizer(rs, inv, lam)
    report = extended_stabilizer(rs, inv, lam)
    assert elements(report.weyl_fixers) == elements(gens), lam
    assert (report.is_regular, report.is_trivial) == (is_regular, trivial), lam
    assert report.witness is witness
    fixer = report.twisted_fixer
    if witness is not None:
        # theta is the witness's matrix, so the twisted witness fixes lam
        assert twisted is not None, lam
        assert fixer.weyl is witness and fixer.twisted is True, lam
        if is_regular:
            assert twisted.matrix == inv.theta, lam
    elif twisted is None:
        assert fixer is None, lam
    else:
        assert fixer.twisted is True
        assert elements([fixer.weyl]) == elements([twisted]), lam
    if fixer is not None:
        assert apply_extended(inv, fixer, lam) == lam, lam
    return not is_regular, twisted is not None and witness is None


def drawn_weights(rank, rng, count=30):
    """Coordinates in {-2, ..., 2} over {1, 2}: many of them singular."""
    return [
        Weight(tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(rank)))
        for _ in range(count)
    ]


def test_catalog_weights_match_reference():
    rng = random.Random(20)
    singular = twisted = total = 0
    for form_id in CATALOG_IDS:
        rs, inv, _ = form(form_id)
        for lam in drawn_weights(rs.rank, rng):
            s, t = assert_matches_reference(rs, inv, lam)
            singular += s
            twisted += t
            total += 1
    assert total == 30 * len(CATALOG_IDS)
    # both kinds of fixer are exercised, the twisted one where theta has no
    # witness, and regular weights too
    assert 0 < singular < total and 0 < twisted < total


@pytest.mark.parametrize("form_id", ["sl(3,R)", "split(E6)"])
def test_twisted_fixers_without_a_witness_match_reference(form_id):
    # theta is no Weyl element here, so the twisted fixer comes from the two
    # chases.  theta maps the dominant chamber onto one chamber, so for mu
    # dominant, lam = mu + dom(theta mu) has dom(theta lam) = lam: lam and
    # theta(lam) each have a twisted fixer, singular or regular
    rs, inv, _ = form(form_id)
    assert inv.weyl_witness is None
    rng = random.Random(34)
    for _ in range(10):
        mu = rs.weight_from_fw([Fraction(rng.randint(0, 2)) for _ in range(rs.rank)])
        lam = mu + dominant_representative(rs, inv.act(mu))[0]
        for weight in (lam, inv.act(lam)):
            assert assert_matches_reference(rs, inv, weight)[1], weight


@pytest.mark.parametrize("seed", [1, 2])
def test_membership_stream_inputs_match_reference(seed):
    workload = MembershipStream()
    entries = load_entries()
    ops = [op for ops in workload.make_rounds(seed, entries)[:10] for op in ops]
    state = workload.prepare({e.id: e for e in entries}, ops)
    for op in ops:
        _, rs, inv = state[op.form]
        assert_matches_reference(rs, inv, op.arg)


COORDINATES = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.sampled_from(CATALOG_IDS), st.lists(COORDINATES, min_size=8, max_size=8))
def test_drawn_weights_match_reference(form_id, coords):
    rs, inv, _ = form(form_id)
    assert_matches_reference(rs, inv, Weight(tuple(coords[: rs.rank])))
