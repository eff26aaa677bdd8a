"""The int ``Weight`` against the Fraction reference weight.

Coordinates are hypothesis-drawn rationals, zero and negative ones included,
given as a mix of ints and Fractions; the int constructor also takes
numerators and denominators not in lowest terms, negative denominators
included.  Arithmetic, equality and hashing, ``coords`` and the order by it,
``encode_value`` and the root system's int maps must agree with Fraction
arithmetic on the same coordinates.
"""

import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import weight_reference as ref
from cartan_ds import Weight, build_root_system, word_element
from cartan_ds.cli import encode_value
from cartan_ds.linalg import format_rational
from cartan_ds.rootdata import _weight, apply_matrix

TYPES = ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "A2xA1", "D4", "F4")

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=12)
# an int, a Fraction with denominator 1, or a proper Fraction
coordinate = st.one_of(st.integers(-12, 12), rationals, st.just(Fraction(0)))


def coords_of(rank):
    return st.tuples(*[coordinate] * rank)


ranks = st.integers(0, 5)


def encoded(value):
    return json.loads(json.dumps(value, default=encode_value))


def assert_same(w, r):
    """w is the reference weight r, in lowest terms with a positive denominator."""
    assert isinstance(w, Weight)
    assert w.coords == r.coords
    assert w.den > 0 and math.gcd(w.den, *w.nums) == 1
    assert w == Weight(r.coords) and hash(w) == hash(Weight(r.coords))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.data())
def test_constructor_matches_the_fraction_weight(data):
    coords = data.draw(ranks.flatmap(coords_of))
    w, r = Weight(coords), ref.FractionWeight(tuple(map(Fraction, coords)))
    assert_same(w, r)
    assert w.rank == r.rank and w.is_zero() == r.is_zero()
    assert Weight.of(coords) == w
    assert all(isinstance(c, Fraction) for c in w.coords)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    st.lists(st.integers(-60, 60), max_size=5),
    st.integers(-36, 36).filter(bool),
    st.integers(-6, 6).filter(bool),
)
def test_int_constructor_reduces_to_lowest_terms(nums, den, k):
    r = ref.FractionWeight(tuple(Fraction(x, den) for x in nums))
    assert_same(_weight(nums, den), r)
    # the same weight from any common multiple of numerators and denominator
    assert_same(_weight([k * x for x in nums], k * den), r)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(ranks.flatmap(lambda n: st.tuples(coords_of(n), coords_of(n))), rationals)
def test_arithmetic_matches_the_fraction_weight(pair, t):
    (x, y), (rx, ry) = map(Weight, pair), (ref.FractionWeight.of(c) for c in pair)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(-x, -rx)
    assert_same(x.scale(t), rx.scale(t))
    assert_same(x.scale(int(t)), rx.scale(int(t)))
    assert_same(x + y - y, rx)
    assert (x == y) == (rx == ry)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.data())
def test_sort_order_and_encoding_match_the_fraction_weight(data):
    n = data.draw(ranks)
    coords = data.draw(st.lists(coords_of(n), max_size=8))
    weights = [Weight(c) for c in coords]
    refs = [ref.FractionWeight.of(c) for c in coords]
    got = [w.coords for w in sorted(weights, key=lambda w: w.coords)]
    assert got == [r.coords for r in sorted(refs, key=lambda r: r.coords)]
    for w, r in zip(weights, refs):
        assert encoded(w) == [format_rational(c) for c in r.coords]
        assert repr(w) == repr(r).replace("FractionWeight", "Weight")
    distinct = sorted(set(refs), key=lambda r: r.coords)
    assert encoded(frozenset(weights)) == [[format_rational(c) for c in r.coords] for r in distinct]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.sampled_from(TYPES), st.data())
def test_root_system_maps_match_the_fraction_weight(cartan_type, data):
    rs = build_root_system(cartan_type)
    x, y = (data.draw(coords_of(rs.rank)) for _ in range(2))
    lam, mu = Weight(x), Weight(y)
    rx, ry = ref.FractionWeight.of(x), ref.FractionWeight.of(y)
    assert_same(rs.weight_from_fw(x), ref.weight_from_fw(rs, x))
    assert_same(rs.weight_from_fw(lam), ref.weight_from_fw(rs, x))
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=6))
    for mat in (word_element(rs, word).matrix, rs.cartan_matrix, rs.form):
        assert_same(apply_matrix(mat, lam), ref.apply_matrix(mat, rx))
