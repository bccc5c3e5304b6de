from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ladder_oracles import is_reduced, normalise_radicals
from oscalgebra.amplitudes import ExactAmplitude, square_free
from oscalgebra.scalar import ROOT_HALF, Scalar


@pytest.mark.parametrize(
    "k,expected",
    [
        (1, (1, 1)),
        (2, (1, 2)),
        (4, (2, 1)),
        (12, (2, 3)),
        (360, (6, 10)),  # 360 = 36 · 10
        (9973, (1, 9973)),  # prime
    ],
)
def test_square_free(k, expected):
    assert square_free(k) == expected


def test_square_free_rejects_nonpositive():
    with pytest.raises(ValueError):
        square_free(0)


def test_construction_merges_and_reduces():
    amp = ExactAmplitude([(Fraction(1), 8), (Fraction(1), 2)])
    # √8 = 2√2, so the two terms merge to 3√2
    assert amp.terms == ((2, Fraction(3)),)


@pytest.mark.parametrize("coeff, radicand", [(0.1, 2), ("1/2", 2), (1, 2.0)])
def test_inexact_input_rejected(coeff, radicand):
    with pytest.raises(TypeError):
        ExactAmplitude([(coeff, radicand)])


def test_zero_is_empty():
    amp = ExactAmplitude([(Fraction(1), 2), (Fraction(-1), 2)])
    assert amp.is_zero
    assert not amp
    assert amp == ExactAmplitude.zero()


def sqrt_product(factors):
    return ExactAmplitude.root_sum([(Scalar(1), factors)])


def test_sqrt_product():
    assert sqrt_product([2, 3]) == ExactAmplitude([(1, 6)])
    assert sqrt_product([2, 2]) == ExactAmplitude([(2, 1)])
    assert sqrt_product([]) == ExactAmplitude([(1, 1)])
    assert sqrt_product([12, 3]) == ExactAmplitude([(6, 1)])


def test_from_scalar():
    assert ExactAmplitude.root_sum([(ROOT_HALF, ())]) == ExactAmplitude([(Fraction(1, 2), 2)])
    assert ExactAmplitude.root_sum([(Scalar(3), ())]) == ExactAmplitude([(3, 1)])


def test_float_value():
    amp = ExactAmplitude([(Fraction(1, 2), 2)])
    assert float(amp) == pytest.approx(2 ** 0.5 / 2, rel=1e-15)


def test_str():
    assert str(ExactAmplitude.zero()) == "0"
    assert str(ExactAmplitude([(Fraction(1, 2), 2)])) == "1/2·√2"
    assert str(ExactAmplitude([(1, 1), (-1, 3)])) == "1 - √3"


small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
amplitudes = st.lists(
    st.tuples(small, st.integers(1, 50)), min_size=0, max_size=4
).map(ExactAmplitude)


@given(amplitudes)
def test_radicands_square_free_and_distinct(x):
    radicands = [k for k, _ in x.terms]
    assert len(set(radicands)) == len(radicands)
    for k in radicands:
        assert square_free(k) == (1, k)


@st.composite
def radical_terms(draw):
    """0–6 (coefficient, radicand) pairs drawn from a small pool of each, so
    radicands repeat and coefficients often cancel.  Radicands lie in 1..10⁴:
    any, or m²·f for one f in {1, 2, 3, 6}, so perfect squares and distinct
    radicands with the same square-free part both come up."""
    f = draw(st.sampled_from([1, 2, 3, 6]))
    radicands = st.one_of(st.integers(1, 10**4), st.integers(1, 40).map(lambda m: m * m * f))
    pool = draw(st.lists(radicands, min_size=1, max_size=3))
    coefficients = st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-1, 2)]))
    return draw(st.lists(st.tuples(coefficients, st.sampled_from(pool)), max_size=6))


@given(radical_terms())
@example([])
@example([(1, 8), (-2, 2)])  # √8 − 2√2 = 0
@example([(1, 10**4), (Fraction(1, 2), 10**4)])  # a repeated perfect square
def test_constructor_matches_term_by_term_normalising(terms):
    amp = ExactAmplitude(terms)
    assert amp == normalise_radicals(terms)
    assert is_reduced(amp)
