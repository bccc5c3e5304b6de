"""The integer (p, q, d) Scalar against the Fraction-pair reference it replaced.

Every operation must give the value, hash, text, float bits and `Fraction`
views the reference gives, on parts that include zeros, the ±1 and ±2 that
print as a bare root, and large numerators and denominators of either sign.
Each result must also be in lowest terms with a positive denominator, so
that equal values have equal fields.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscalgebra.scalar import Scalar
from scalar_reference import FractionScalar

_big = st.integers(-10**30, 10**30)
_parts = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]),
    st.integers(-3, 3),
    st.builds(Fraction, _big, st.integers(1, 10**20) | st.integers(-10**20, -1)),
)
pairs = st.tuples(_parts, _parts)
ints = st.integers(-5, 5) | _big | st.booleans()


def check_same(x: Scalar, ref: FractionScalar) -> None:
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (ref.a, ref.b)
    assert x._d > 0
    assert math.gcd(x._p, x._q, x._d) == 1
    assert hash(x) == hash(ref)
    assert str(x) == str(ref)
    assert repr(x) == repr(ref)
    assert x.radicals() == ref.radicals()
    value, expected = float(x), float(ref)
    assert value == expected and math.copysign(1, value) == math.copysign(1, expected)
    assert bool(x) is bool(ref) is not x.is_zero
    if not ref.b:
        assert x.as_fraction() == ref.a
    else:
        with pytest.raises(ValueError):
            x.as_fraction()


def both(pair):
    return Scalar(*pair), FractionScalar(*pair)


@given(pairs)
def test_construction_and_views(pair):
    x, ref = both(pair)
    check_same(x, ref)
    check_same(-x, -ref)


@given(pairs, pairs)
def test_binary_operations(first, second):
    (x, rx), (y, ry) = both(first), both(second)
    check_same(x + y, rx + ry)
    check_same(x - y, rx - ry)
    check_same(x * y, rx * ry)
    assert (x == y) is (rx == ry)
    if ry:
        check_same(x / y, rx / ry)
        check_same(y.inverse(), ry.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()


@given(pairs, ints)
def test_mixed_operations_with_ints(pair, k):
    x, ref = both(pair)
    check_same(x * k, ref * k)
    check_same(k * x, k * ref)
    check_same(x + k, ref + k)
    check_same(x - k, ref - k)
    check_same(k - x, k - ref)
    assert (x == k) is (ref == k)
    if ref:
        check_same(k / x, k / ref)


@given(pairs, st.fractions(max_denominator=10**6))
def test_mixed_operations_with_fractions(pair, f):
    x, ref = both(pair)
    check_same(x * f, ref * f)
    check_same(x + f, ref + f)
    assert (x == f) is (ref == f)
    if f:
        check_same(x / f, ref / f)


def test_hash_agrees_with_the_rationals():
    assert hash(Scalar(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert hash(Scalar(3)) == hash(3) and Scalar(3) == 3
    # a result of arithmetic, with no Fraction view built yet
    computed = Scalar(1) * 3 / 4
    assert hash(computed) == hash(Fraction(3, 4)) and computed == Fraction(3, 4)
    assert len({Scalar(2), 2, Fraction(4, 2), Scalar(1) + 1}) == 1


def test_parts_are_read_only():
    x = Scalar(Fraction(1, 3), 2) * 5
    with pytest.raises(AttributeError):
        x.a = Fraction(1)
    with pytest.raises(AttributeError):
        x.b = Fraction(1)
    with pytest.raises(AttributeError):
        x.c = 0
    assert (x.a, x.b) == (Fraction(5, 3), 10)
