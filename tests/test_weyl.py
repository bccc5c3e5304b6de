import random
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladder_oracles import rewrite_multiply
from oscalgebra.relations import CASIMIR_NAME, all_relations, casimir_commutation_checks
from oscalgebra.scalar import ROOT_HALF
from oscalgebra.weyl import (
    A,
    ADAG,
    EVEN,
    IDENTITY,
    NAMED_CONSTANTS,
    ODD,
    GradedElement,
    LadderMonomial,
    WeylPolynomial,
    anticommutator,
    canonical_name,
    casimir,
    commutator,
    graded_bracket,
    graded_sign,
    hamiltonian,
    monomial,
    product_sum,
    standard_generators,
)
from strategies import graded_elements, weyl_polys


@pytest.fixture(scope="module")
def gens():
    return standard_generators()


# -- products and canonical form ------------------------------------------------


def test_single_rewrite():
    assert A * ADAG == WeylPolynomial({(1, 1): 1, (0, 0): 1})


def test_already_normal_ordered():
    assert A * A == monomial(0, 2)
    assert ADAG * A == monomial(1, 1)
    # a numpy coefficient squares like the Python int, without int64 overflow
    big, exact = WeylPolynomial({(1, 0): np.int64(2**40)}), WeylPolynomial({(1, 0): 2**40})
    assert big * big == exact * exact == monomial(2, 0, 2**80)


def test_canonical_form_drops_zeros():
    assert WeylPolynomial({(1, 0): 1, (0, 1): 0}) == ADAG
    assert (A - A).is_zero
    assert WeylPolynomial() == WeylPolynomial({(2, 2): 0})


def test_monomial_bookkeeping():
    m = LadderMonomial(2, 1)
    assert m.degree == 3
    assert m.parity == ODD
    assert m.offset == 1
    assert LadderMonomial(0, 0).parity == EVEN


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        WeylPolynomial({(-1, 0): 1})
    with pytest.raises(TypeError):
        WeylPolynomial({(1.5, 0): 1})
    with pytest.raises(TypeError):
        monomial(2.0, 0)
    # a numpy exponent is an index: it is stored and printed as an int
    [(mono, _)] = WeylPolynomial({(np.int64(2), 0): 1}).items()
    assert type(mono.p) is int and str(mono) == "a†²"


# -- generators -------------------------------------------------------------------


def test_standard_generators(gens):
    assert gens["K-"].poly == monomial(0, 2, Fraction(1, 2))
    assert gens["K+"].poly == monomial(2, 0, Fraction(1, 2))
    assert gens["K3"].poly == WeylPolynomial(
        {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 4)}
    )
    assert gens["Q"].poly == monomial(0, 1, ROOT_HALF)
    assert gens["K3"].parity == EVEN
    assert gens["Q"].parity == ODD
    assert gens["Q†"].parity == ODD


def test_hamiltonian_is_twice_k3(gens):
    assert hamiltonian() == gens["K3"].poly.scaled(2)
    assert hamiltonian() == WeylPolynomial({(1, 1): 1, (0, 0): Fraction(1, 2)})


# -- adjoint ----------------------------------------------------------------------


def test_adjoint_examples(gens):
    assert gens["Q"].poly.adjoint() == gens["Q†"].poly
    assert gens["K3"].poly.adjoint() == gens["K3"].poly
    assert gens["K-"].poly.adjoint() == gens["K+"].poly


@given(weyl_polys())
def test_adjoint_involution(x):
    assert x.adjoint().adjoint() == x


@given(weyl_polys(max_degree=3), weyl_polys(max_degree=3))
def test_adjoint_antihomomorphism(x, y):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


# -- graded bracket ------------------------------------------------------------------


def test_graded_bracket_examples(gens):
    assert graded_bracket(gens["Q"], gens["Q†"]).poly == gens["K3"].poly.scaled(2)
    assert graded_bracket(gens["K3"], gens["K+"]).poly == gens["K+"].poly
    assert graded_bracket(gens["K+"], gens["Q"]).poly == -gens["Q†"].poly
    assert graded_bracket(gens["K+"], gens["Q†"]).poly.is_zero


def test_bracket_parity(gens):
    assert graded_bracket(gens["Q"], gens["Q†"]).parity == EVEN
    assert graded_bracket(gens["K3"], gens["Q"]).parity == ODD


def test_mixed_parity_rejected():
    with pytest.raises(ValueError):
        GradedElement(A + monomial(2, 0), ODD)
    with pytest.raises(ValueError):
        GradedElement(monomial(1, 0) + monomial(2, 0), EVEN)
    with pytest.raises(ValueError):
        GradedElement.of(A + IDENTITY)


def test_graded_element_of_infers_parity():
    assert GradedElement.of(A).parity == ODD
    assert GradedElement.of(IDENTITY).parity == EVEN


def test_graded_element_is_a_value(gens):
    q = gens["Q"]
    twin = GradedElement(monomial(0, 1, ROOT_HALF), ODD)
    assert twin == q and hash(twin) == hash(q)
    assert twin != GradedElement(monomial(0, 1), ODD)
    with pytest.raises(AttributeError):
        q.parity = EVEN
    with pytest.raises(AttributeError):
        q.poly = A
    assert GradedElement.of(q) is q


def test_standard_generators_read_the_table():
    gens = standard_generators()
    assert list(gens) == ["K+", "K-", "K3", "Q", "Q†"]
    for name in gens:
        assert gens[name] is NAMED_CONSTANTS[name]
    gens.clear()  # a fresh dict each call: the table is not touched
    assert len(standard_generators()) == 5 and len(NAMED_CONSTANTS) == 6


# -- Casimir -----------------------------------------------------------------------


def test_casimir_is_three_sixteenths():
    assert casimir() == IDENTITY.scaled(Fraction(3, 16))


def test_casimir_intermediate_expansion(gens):
    # the symmetrized product expands to (1/8)(2·a†²a² + 4·a†a + 2·1) ...
    kp, km, k3 = gens["K+"].poly, gens["K-"].poly, gens["K3"].poly
    sym = (kp * km + km * kp).scaled(Fraction(1, 2))
    assert sym.scaled(8) == WeylPolynomial({(2, 2): 2, (1, 1): 4, (0, 0): 2})
    # ... and the squared diagonal generator to (1/4)(a†²a² + 2·a†a + ¼·1)
    assert (k3 * k3).scaled(4) == WeylPolynomial(
        {(2, 2): 1, (1, 1): 2, (0, 0): Fraction(1, 4)}
    )
    assert sym - k3 * k3 == IDENTITY.scaled(Fraction(3, 16))


def test_casimir_commutes_with_even_generators():
    for name, residual in casimir_commutation_checks():
        assert residual.is_zero, name


def test_casimir_bracket_as_graded_element(gens):
    k2 = GradedElement.of(casimir())
    assert graded_bracket(k2, gens["K+"]).poly.is_zero


# -- the full relation table ----------------------------------------------------------


def test_sixteen_relations_exact():
    relations = all_relations()
    assert len(relations) == 16
    for rel in relations:
        assert rel.residual_poly().is_zero, rel.name


def test_bracket_relations_take_their_kind_from_parity():
    # the printed bracket, the signed products and the graded bracket agree
    brackets = [rel for rel in all_relations() if rel.name != CASIMIR_NAME]
    assert len(brackets) == 15
    for rel in brackets:
        (_, x, y), _ = rel.products
        assert rel.products == ((1, x, y), (-graded_sign(x.parity(), y.parity()), y, x)), rel.name
        assert rel.name.startswith("{") == (x.parity() == y.parity() == ODD), rel.name
        expected = graded_bracket(GradedElement.of(x), GradedElement.of(y)).poly
        assert rel.lhs() == expected, rel.name


def test_ladder_square_realizations(gens):
    assert anticommutator(A, A) == gens["K-"].poly.scaled(4)
    assert anticommutator(ADAG, ADAG) == gens["K+"].poly.scaled(4)
    assert anticommutator(A, ADAG) == gens["K3"].poly.scaled(4)


# -- canonical naming -------------------------------------------------------------------


def test_canonical_name(gens):
    assert canonical_name(gens["K3"].poly.scaled(2)) == "K3"
    assert canonical_name(IDENTITY.scaled(Fraction(1, 2))) == "1"
    assert canonical_name(gens["Q"].poly.scaled(ROOT_HALF)) == "Q"
    assert canonical_name(gens["K3"].poly + gens["Q"].poly) is None
    assert canonical_name(WeylPolynomial()) is None


# -- randomized properties ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(weyl_polys(max_degree=6, max_terms=2), weyl_polys(max_degree=6, max_terms=2), st.integers(0, 2**32 - 1))
def test_normal_order_confluence(x, y, seed):
    rng = random.Random(seed)
    assert x * y == rewrite_multiply(x, y, rng)


# product_sum coefficients: Fractions whose denominator is above 1
kernel_coefficients = st.fractions(-6, 6, max_denominator=12).filter(lambda c: c.denominator > 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(kernel_coefficients, weyl_polys(), weyl_polys()), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_product_sum_matches_rewriting(products, seed):
    rng = random.Random(seed)
    expected = sum(
        (rewrite_multiply(x, y, rng).scaled(c) for c, x, y in products), WeylPolynomial()
    )
    total = product_sum(products)
    assert total == expected
    # canonical form without __init__: monomial keys and no zero coefficient
    assert all(type(m) is LadderMonomial and c for m, c in total.items())


@settings(max_examples=60, deadline=None)
@given(weyl_polys(), weyl_polys())
def test_brackets_match_assembled_products(x, y):
    assert commutator(x, y) == x * y + (y * x).scaled(-1)
    assert anticommutator(x, y) == x * y + y * x


@settings(max_examples=200, deadline=None)
@given(weyl_polys(), weyl_polys(), weyl_polys())
def test_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@settings(max_examples=200, deadline=None)
@given(graded_elements(), graded_elements())
def test_graded_antisymmetry(x, y):
    sign = -1 if (x.parity and y.parity) else 1
    lhs = graded_bracket(x, y).poly
    rhs = graded_bracket(y, x).poly.scaled(-sign)
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(graded_elements(), graded_elements())
def test_bracket_result_has_its_declared_parity(x, y):
    # graded_bracket skips the constructor's monomial check: the parity of
    # every monomial of the result must still be the declared one
    result = graded_bracket(x, y)
    assert result.parity == (x.parity + y.parity) % 2
    assert all(mono.parity == result.parity for mono, _ in result.poly.items())


@settings(max_examples=200, deadline=None)
@given(graded_elements(), graded_elements())
def test_product_parity_is_mod2_sum(x, y):
    product = x.poly * y.poly
    if not product.is_zero:
        assert product.parity() == (x.parity + y.parity) % 2


def test_product_matches_sympy_normal_ordering():
    # independent oracle: sympy's boson normal ordering of the same random words
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum import Dagger
    from sympy.physics.quantum.boson import BosonOp
    from sympy.physics.quantum.operatorordering import normal_ordered_form

    a = BosonOp("a")
    rng = random.Random(1203)
    for _ in range(40):  # a degree-8 word costs sympy up to ~50 ms
        # halves leaning to a…a·a†…a†, the order in which contractions pile up
        left = rng.choices((A, ADAG), weights=(3, 1), k=rng.randint(0, 4))
        right = rng.choices((A, ADAG), weights=(1, 3), k=rng.randint(0, 4))
        product = reduce(mul, left, IDENTITY) * reduce(mul, right, IDENTITY)

        word = left + right
        expr = sympy.Mul(*(a if letter is A else Dagger(a) for letter in word))
        ordered = normal_ordered_form(sympy.expand(expr), recursive_limit=100)
        expected: dict[tuple[int, int], Fraction] = {}
        for term in sympy.Add.make_args(ordered):
            coeff, p, q = Fraction(1), 0, 0
            for factor in sympy.Mul.make_args(term):
                base, exp = factor.as_base_exp()
                if base.is_number:
                    coeff *= Fraction(int(factor.p), int(factor.q))
                elif base.is_annihilation:
                    q += int(exp)
                else:
                    p += int(exp)
            expected[(p, q)] = expected.get((p, q), 0) + coeff
        assert product == WeylPolynomial(expected)
