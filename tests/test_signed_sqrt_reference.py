"""``SignedSqrt``'s int order and validation against the Fraction rules.

A ``SignedSqrt`` is validated and ordered on ints: the square's numerator
decides its sign and whether it is zero, and two values of one sign s compare
by s a b' against s a' b for the squares a/b and a'/b' in lowest terms.  The
references below are the rules this replaced, on Fractions: the order of
sign * square, which is m |m| for the value m, and the checks square < 0 and
sign == 0 != (square == 0).  They are compared on hypothesis-drawn values:
zero, both signs, equal values given as unreduced quotients, and invalid
pairs.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import SignedSqrt


def reference_less(x, y):
    """x < y by the signed squares, on Fractions."""
    return x.sign * x.square < y.sign * y.square


def reference_error(sign, square):
    """The error type the Fraction validation raised for (sign, square), or None."""
    if sign not in (-1, 0, 1) or square < 0 or (sign == 0) != (square == 0):
        return ValueError
    return None


def constructed(sign, square):
    """The error type ``SignedSqrt(sign, square)`` raises, or None."""
    try:
        SignedSqrt(sign, square)
    except (TypeError, ValueError) as error:
        return type(error)
    return None


# a square given as n k / (d k): unreduced on input, reduced by Fraction
squares = st.builds(
    lambda n, d, k: Fraction(n * k, d * k),
    st.integers(min_value=-6, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
)
valid = st.builds(
    lambda sign, square: SignedSqrt(sign, abs(square)) if sign and square else SignedSqrt.zero(),
    st.sampled_from((-1, 0, 1)),
    squares,
)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(x=valid, y=valid)
def test_order_and_equality_match_the_fraction_order(x, y):
    assert (x < y) == reference_less(x, y)
    assert (x > y) == reference_less(y, x)
    assert (x <= y) == (not reference_less(y, x))
    assert (x == y) == (x.sign * x.square == y.sign * y.square)
    if x == y:
        assert hash(x) == hash(y)


@settings(deadline=None, derandomize=True)
@given(sign=st.sampled_from((-1, 1)), n=st.integers(1, 12), d=st.integers(1, 6), k=st.integers(2, 5))
def test_equal_values_given_unreduced_are_equal_and_unordered(sign, n, d, k):
    x = SignedSqrt(sign, Fraction(n, d))
    y = SignedSqrt(sign, Fraction(n * k, d * k))
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert not x < y and not y < x


@settings(deadline=None, derandomize=True, max_examples=400)
@given(sign=st.integers(min_value=-2, max_value=2), square=squares)
def test_validation_matches_the_fraction_checks(sign, square):
    assert constructed(sign, square) == reference_error(sign, square)
    # an int square is validated as the Fraction it equals
    if square.denominator == 1:
        assert constructed(sign, int(square)) == reference_error(sign, square)
