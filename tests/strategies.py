"""Shared hypothesis strategies for random algebra elements."""

from __future__ import annotations

import hypothesis.strategies as st

from oscalgebra.scalar import Scalar
from oscalgebra.weyl import EVEN, ODD, GradedElement, WeylPolynomial

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)

scalars = st.builds(Scalar, small_fractions, small_fractions)

nonzero_scalars = scalars.filter(lambda s: not s.is_zero)


def monomials(max_degree: int = 4):
    return st.tuples(
        st.integers(0, max_degree), st.integers(0, max_degree)
    ).filter(lambda pq: pq[0] + pq[1] <= max_degree)


def weyl_polys(max_degree: int = 4, max_terms: int = 3):
    return st.lists(
        st.tuples(monomials(max_degree), scalars), min_size=0, max_size=max_terms
    ).map(WeylPolynomial)


@st.composite
def graded_elements(draw, max_degree: int = 4, max_terms: int = 3, parity: int | None = None):
    """A parity-homogeneous element; its parity is drawn unless given."""
    if parity is None:
        parity = draw(st.sampled_from((EVEN, ODD)))
    mono = st.sampled_from(
        [(p, d - p) for d in range(parity, max_degree + 1, 2) for p in range(d + 1)]
    )
    terms = draw(st.lists(st.tuples(mono, scalars), min_size=0, max_size=max_terms))
    return GradedElement(WeylPolynomial(terms), parity)
