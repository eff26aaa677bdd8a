"""The int stabilizer chases against the matrix-building chases they replaced.

``extended_stabilizer`` scales the weight to ints once, takes its involution
image on ints and chases both to the dominant chamber with no matrix
(``rootdata._chase``).  The walls are the zeros of the weight's dominant
fundamental coordinates, and the image lies in the weight's Weyl orbit when
both chases end at the same fundamental coordinates.  Weyl elements are
built from the chase words only for the fixers returned: with chase words u
and v, the fixer of wall i is u + [i] + u reversed and the twisted fixer is
u + v reversed.  ``stabilizer_generators`` shares that kernel
(``rootdata._stabilizer_chase``), and ``dominant_representative`` builds its
element from the chase word.

The references below are those functions as they were: a chase that updates
the rows of its element's matrix at every step, walls read back from the
Fraction dominant weight, fixers built by ``word_element`` from the words of
the reference chase, and θλ taken on the Fraction weight and chased again.  They are compared on every catalog form
with drawn weights (many of them singular), on the membership_stream inputs
of two seeds and on hypothesis-drawn weights: the fixers' matrices and
words, the twisted fixer's matrix, word and flag, ``is_regular``,
``is_trivial`` and ``witness``, and ``stabilizer_generators``' ``gens``,
``dominant`` and ``to_dominant``.

Mutations these tests catch: a fixer word that is not mirrored (u + [i] + u),
the twisted word with v not reversed (u + v), walls read from the weight's
pairings before the chase, θλ taken from the chased (dominant) coordinates,
the two chases compared as sorted coordinate lists, the witness ignored in
``is_trivial``, and ``dominant_representative`` built from the chase word
unreversed.
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
    singular and whether it has a twisted fixer."""
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
    if twisted is None:
        assert report.twisted_fixer is None, lam
    else:
        assert report.twisted_fixer.twisted is True
        assert elements([report.twisted_fixer.weyl]) == elements([twisted]), lam
    return not is_regular, twisted is not None


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
    # both kinds of fixer are exercised, and regular weights too
    assert 0 < singular < total and 0 < twisted < total


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
