import math
from fractions import Fraction

import pytest
from hypothesis import given

from oscalgebra.scalar import ONE, ROOT_HALF, ZERO, Scalar
from strategies import nonzero_scalars, scalars


def test_root_half_squares_to_half():
    assert ROOT_HALF * ROOT_HALF == Scalar(Fraction(1, 2))


def test_float_value():
    assert float(Scalar(3, 0)) == 3.0
    assert float(ROOT_HALF) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_rational_accessors():
    assert Scalar(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert ROOT_HALF.is_rational is False
    with pytest.raises(ValueError):
        ROOT_HALF.as_fraction()


def test_mixed_arithmetic_with_ints_and_fractions():
    assert Scalar(1) + 1 == Scalar(2)
    assert 2 * ROOT_HALF == Scalar(0, 2)
    assert Scalar(1) - Fraction(1, 2) == Scalar(Fraction(1, 2))
    assert (ONE / 2) == Scalar(Fraction(1, 2))


def test_floats_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1) * 0.5


def test_int_scaling_matches_scalar_product():
    x = Scalar(Fraction(3, 7), Fraction(-5, 2))
    for k in (-3, 0, 1, 4, True):
        product = x * k
        assert product == x * Scalar(k) == k * x
        assert type(product.a) is Fraction and type(product.b) is Fraction
    # an incoming Fraction is kept, not re-wrapped
    half = Fraction(1, 2)
    assert Scalar(half, half).a is half


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(Scalar(Fraction(3, 4))) == "3/4"
    assert str(ROOT_HALF) == "1/2·√2"
    assert str(Scalar(0, 2)) == "√2"
    assert str(Scalar(1, -2)) == "1 - √2"


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(nonzero_scalars)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ONE
    assert (ONE / x) * x == ONE


@given(nonzero_scalars, scalars)
def test_division_round_trip(x, y):
    assert (y / x) * x == y


@given(scalars)
def test_float_consistency(x):
    assert float(x) == pytest.approx(
        float(x.a) + float(x.b) / math.sqrt(2), rel=1e-14, abs=1e-14
    )
