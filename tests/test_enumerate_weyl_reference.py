"""Weyl-group enumeration against the matrix-keyed closure it replaced.

``enumerate_weyl`` keys each element w by the int tuple w^-1 (2 rho) and the
right multiple w s_i by s_i(w^-1 (2 rho)), building a matrix only for a new
key.  The reference is the closure as it was before,
``weyl_reference.reference_enumerate_weyl``: every right multiple is built as
a ``WeylElement`` and deduplicated by its matrix.  Both return (matrix, word)
sets, and the words are compared too, since reports print them.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``: the Weyl-group enumeration group there.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import CapExceeded, build_root_system, enumerate_weyl, weyl_order
from cartan_ds import rootdata
from weyl_reference import reference_enumerate_weyl

IRREDUCIBLE_TYPES = (
    ["A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3", "B4", "B5", "C1", "C2", "C3", "C4"]
    + ["C5", "D2", "D3", "D4", "D5", "F4", "G2"]
)


def _pairs(group):
    return {(w.matrix, w.word) for w in group}


def assert_matches_reference(rs):
    got = enumerate_weyl(rs)
    assert isinstance(got, frozenset)
    assert len(got) == rs.weyl_order == weyl_order(rs.cartan_type)
    assert _pairs(got) == _pairs(reference_enumerate_weyl(rs))


@pytest.mark.parametrize("cartan_type", IRREDUCIBLE_TYPES + ["E6"])
def test_enumerate_weyl_matches_reference(cartan_type):
    assert_matches_reference(build_root_system(cartan_type))


FACTORS = [(family, n) for n in range(1, 5) for family in "ABCD" if (family, n) != ("D", 1)]
FACTORS += [("F", 4), ("G", 2)]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4))
def test_enumerate_weyl_matches_reference_on_drawn_products(factors):
    total = 0
    kept = []
    for family, n in factors:
        if total + n <= 4:
            kept.append((family, n))
            total += n
    assert_matches_reference(build_root_system(kept))


@pytest.mark.parametrize(
    "cartan_type, cap, message",
    [
        ("A3", 5, "^Weyl group order 24 exceeded cap 5$"),
        ("B3", 47, "^Weyl group order 48 exceeded cap 47$"),
        ("E8", 100000, "^Weyl group order 696729600 exceeded cap 100000$"),
    ],
)
def test_cap_refuses_like_the_reference_before_any_work(monkeypatch, cartan_type, cap, message):
    rs = build_root_system(cartan_type)
    with pytest.raises(CapExceeded, match=message):
        reference_enumerate_weyl(rs, cap)

    def no_closure(*args, **kwargs):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(rootdata, "closure", no_closure)
    with pytest.raises(CapExceeded, match=message):
        enumerate_weyl(rs, cap)


def test_cap_at_the_group_order_is_enough():
    rs = build_root_system("B3")
    assert _pairs(enumerate_weyl(rs, cap=48)) == _pairs(reference_enumerate_weyl(rs, cap=48))
