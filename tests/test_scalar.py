import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscalgebra.fock import _scalar_value
from oscalgebra.scalar import ROOT_HALF, ZERO, Scalar
from strategies import nonzero_scalars, scalars

ONE = Scalar(1)


def test_root_half_squares_to_half():
    assert ROOT_HALF * ROOT_HALF == Scalar(Fraction(1, 2))


def test_float_value():
    assert float(Scalar(3, 0)) == 3.0
    assert float(ROOT_HALF) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_rational_accessors():
    assert Scalar(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
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
    # a numpy integer enters as a Python int, so it cannot overflow later
    assert Scalar(np.int64(2**62)) * 4 == 2**64


def test_int_scaling_matches_scalar_product():
    x = Scalar(Fraction(3, 7), Fraction(-5, 2))
    for k in (-3, 0, 1, 4, True):
        product = x * k
        assert product == x * Scalar(k) == k * x
        assert type(product.a) is Fraction and type(product.b) is Fraction


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


# -- the shared radical form against the renderer and value it replaced ---------


def _reference_str(x: Scalar) -> str:
    """Scalar's own renderer before both exact types shared one."""
    if x.is_zero:
        return "0"
    parts = []
    if x.a:
        parts.append(str(x.a))
    if x.b:
        c = x.b / 2
        if c == 1:
            root = "√2"
        elif c == -1:
            root = "-√2"
        else:
            root = f"{c}·√2"
        if parts and c > 0:
            parts.append(f"+ {root}")
        elif parts:
            parts.append(f"- {root.lstrip('-')}")
        else:
            parts.append(root)
    return " ".join(parts)


def _reference_float(x: Scalar) -> float:
    return float(x.a) + float(x.b) * math.sqrt(0.5)


def _reference_dtype_value(x: Scalar, dtype):
    a = dtype(x.a.numerator) / dtype(x.a.denominator)
    b = dtype(x.b.numerator) / dtype(x.b.denominator)
    return a + b * np.sqrt(dtype(0.5))


def _same_bits(x, y) -> bool:
    # == and the sign bit decide identity for non-NaN values; the padding
    # bytes of an 80-bit longdouble are not part of the value
    return x == y and np.signbit(x) == np.signbit(y)


# zero parts, the ±1 and ±2 that print as a bare root, and general fractions
_parts = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2]),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@given(st.builds(Scalar, _parts, _parts))
def test_radical_form_matches_reference(x):
    assert str(x) == _reference_str(x)
    assert _same_bits(float(x), _reference_float(x))
    for dtype in (np.float64, np.longdouble):
        value = _scalar_value(x, dtype)
        assert value.dtype == dtype
        assert _same_bits(value, _reference_dtype_value(x, dtype))


def test_radicals_drop_zero_terms():
    assert ZERO.radicals() == ()
    assert Scalar(3).radicals() == ((1, 3),)
    assert ROOT_HALF.radicals() == ((2, Fraction(1, 2)),)
    assert Scalar(-1, 4).radicals() == ((1, -1), (2, 2))
