import collections
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oscalgebra import superalgebra
from oscalgebra.scalar import Scalar
from oscalgebra.superalgebra import (
    AlgebraBasis,
    ClosureOverflowError,
    close_under_bracket,
    graded_jacobi_check,
    jacobi_from_constants,
    structure_constants,
)
from oscalgebra.weyl import (
    A,
    EVEN,
    ODD,
    GradedElement,
    IDENTITY,
    NAMED_CONSTANTS,
    WeylPolynomial,
    commutator,
    graded_bracket,
    monomial,
    standard_generators,
)
from strategies import graded_elements, nonzero_scalars

GEN_ORDER = ("K+", "K-", "K3", "Q", "Q†")
ZERO = WeylPolynomial()


def constant(sc, i, j, k):
    """c[i][j][k] of a structure-constant table, with i, j, k basis names."""
    at = sc.names.index
    return sc.tensor[at(i)][at(j)][at(k)]


def bracket_kind(sc, i, j):
    at = sc.names.index
    return sc.kinds[at(i)][at(j)]


@pytest.fixture(scope="module")
def gens():
    return standard_generators()


@pytest.fixture(scope="module")
def osp_basis(gens):
    return AlgebraBasis(tuple((n, gens[n]) for n in GEN_ORDER))


# -- closure -------------------------------------------------------------------


def test_minimal_seed_graded_closure(gens, osp_basis):
    result = close_under_bracket([gens["K3"], gens["Q"], gens["Q†"]], "graded", 8)
    assert result.basis.dim == 5
    assert set(result.basis.names) == set(GEN_ORDER)
    assert set(result.added) == {"K+", "K-"}
    assert result.basis.spans_same(osp_basis)


def test_odd_doublet_alone_closes_to_five(gens, osp_basis):
    result = close_under_bracket([gens["Q"], gens["Q†"]], "graded", 8)
    assert result.basis.dim == 5
    assert result.basis.spans_same(osp_basis)


def test_minimal_seed_commutator_only(gens):
    result = close_under_bracket(
        [gens["K3"], gens["Q"], gens["Q†"]], "commutator-only", 8
    )
    assert result.basis.dim == 4
    assert "1" in result.basis.names
    assert result.basis.contains(IDENTITY)


def test_even_triple_already_closed(gens):
    result = close_under_bracket([gens["K+"], gens["K-"], gens["K3"]], "graded", 8)
    assert result.basis.dim == 3
    assert result.added == ()


def test_heisenberg_set_closed_under_commutators(gens):
    seed = [gens["Q"], gens["Q†"], GradedElement(IDENTITY, EVEN)]
    result = close_under_bracket(seed, "commutator-only", 8)
    assert result.basis.dim == 3
    assert result.added == ()


def test_closure_overflow_is_distinct_from_success(gens):
    with pytest.raises(ClosureOverflowError):
        close_under_bracket([gens["Q"], gens["Q†"]], "graded", 3)


def test_closure_rejects_bad_input(gens):
    with pytest.raises(ValueError):
        close_under_bracket([], "graded", 8)
    with pytest.raises(ValueError):
        close_under_bracket([gens["Q"]], "graded", 0)
    with pytest.raises(ValueError):
        close_under_bracket([gens["Q"], gens["Q"]], "graded", 8)  # dependent
    with pytest.raises(ValueError):
        close_under_bracket([gens["Q"]], "no-such-mode", 8)
    with pytest.raises(ValueError):
        close_under_bracket([gens["Q"]], mode="commutator")  # no alias for commutator-only


def test_closure_accepts_bare_polynomials(gens):
    result = close_under_bracket([gens["Q"].poly, gens["Q†"].poly], "graded", 8)
    assert result.basis.dim == 5


def _subsets(names):
    for r in range(1, len(names) + 1):
        yield from itertools.combinations(names, r)


@pytest.mark.parametrize("seed_names", list(_subsets(GEN_ORDER)))
def test_closure_properties_on_generator_subsets(gens, seed_names):
    seed = [gens[n] for n in seed_names]
    result = close_under_bracket(seed, "graded", 8)
    # monotonicity: the closure span contains the seed span
    for elem in seed:
        assert result.basis.contains(elem.poly)
    # idempotence: closing the closure adds nothing
    again = close_under_bracket([e for _, e in result.basis], "graded", 8)
    assert again.added == ()
    assert again.basis.dim == result.basis.dim
    # order independence: any seed ordering spans the same space
    for perm in itertools.permutations(seed_names):
        other = close_under_bracket([gens[n] for n in perm], "graded", 8)
        assert other.basis.spans_same(result.basis)


def test_generations_counting(gens):
    closed = close_under_bracket([gens["K+"], gens["K-"], gens["K3"]], "graded", 8)
    assert closed.generations == 1  # one sweep, nothing to add
    grown = close_under_bracket([gens["Q"], gens["Q†"]], "graded", 8)
    assert grown.generations == 2  # everything appears in the first sweep


@settings(max_examples=40, deadline=None)
@given(
    seed=st.lists(graded_elements(3, 2).filter(lambda e: e.poly), min_size=1, max_size=3),
    mode=st.sampled_from(("graded", "commutator-only")),
    data=st.data(),
)
def test_closure_names_never_repeat(seed, mode, data):
    # a multiple of a named element already lies in the span, so each
    # canonical name is given at most once and G-names count up from G0
    max_dim = data.draw(st.integers(len(seed), 10), label="max_dim")
    try:
        basis = close_under_bracket(seed, mode, max_dim).basis
    except ClosureOverflowError as err:
        names, added = err.names, []
    except ValueError as err:
        assert "linearly dependent" in str(err)
        assume(False)
    else:
        names, added = [name for name, _ in basis], list(basis)[len(seed):]
    assert len(set(names)) == len(names)
    g_names = [name for name in names if name not in NAMED_CONSTANTS]
    assert g_names == [f"G{i}" for i in range(len(g_names))]
    for name, element in added:
        if name in NAMED_CONSTANTS:
            assert element is NAMED_CONSTANTS[name]


# Higher-degree seeds, the benchmark's closure workload: overflow names and
# the closed basis are pinned exactly, so any change to a span decision shows.

CUBIC_OVERFLOW_24 = (
    "G0 G1 G2 G3 G4 G5 G6 G7 G8 G9 G10 G11 G12 G13 G14 G15 G16 G17 G18 G19 "
    "G20 G21 G22 G23"
).split()
CUBIC_OVERFLOW_40 = CUBIC_OVERFLOW_24 + (
    "G24 G25 G26 G27 G28 G29 G30 G31 G32 G33 G34 G35 G36 G37 G38 G39"
).split()
CUBIC_OVERFLOW_80 = CUBIC_OVERFLOW_40 + (
    "G40 G41 G42 G43 G44 G45 G46 G47 G48 G49 G50 G51 G52 G53 G54 G55 G56 G57 "
    "G58 G59 G60 G61 G62 G63 G64 G65 G66 G67 G68 G69 G70 G71 G72 G73 G74 G75 "
    "G76 G77 G78 G79"
).split()
DEGREE_16_BASIS = [
    ("G0", "a†¹⁶"),
    ("Q", "a"),
    ("G1", "-16·a†¹⁵"),
    ("G2", "-240·a†¹⁴"),
    ("G3", "-3360·a†¹³"),
    ("G4", "-43680·a†¹²"),
    ("G5", "-524160·a†¹¹"),
    ("G6", "-5765760·a†¹⁰"),
    ("G7", "-57657600·a†⁹"),
    ("G8", "-518918400·a†⁸"),
    ("G9", "-4151347200·a†⁷"),
    ("G10", "-29059430400·a†⁶"),
    ("G11", "-174356582400·a†⁵"),
    ("G12", "-871782912000·a†⁴"),
    ("G13", "-3487131648000·a†³"),
    ("K+", "1/2·a†²"),
    ("Q†", "1/2·√2·a†"),
    ("1", "1"),
]


@pytest.mark.parametrize(
    "max_dim, names",
    [(24, CUBIC_OVERFLOW_24), (40, CUBIC_OVERFLOW_40), (80, CUBIC_OVERFLOW_80)],
)
def test_cubic_seed_overflow_names(max_dim, names):
    with pytest.raises(ClosureOverflowError) as info:
        close_under_bracket([monomial(3, 0), monomial(0, 3)], "graded", max_dim)
    assert info.value.names == names


def test_degree_16_seed_commutator_closure():
    result = close_under_bracket([monomial(16, 0), monomial(0, 1)], "commutator-only", 24)
    assert result.basis.dim == 18
    assert result.generations == 17
    assert result.added == tuple(name for name, _ in DEGREE_16_BASIS[2:])
    assert [(name, str(e.poly)) for name, e in result.basis] == DEGREE_16_BASIS


# Work count: a pair bracketed in one sweep is already inside the span in the
# next, so no pair is bracketed twice.


@pytest.mark.parametrize(
    "seed, mode",
    [
        (("K3", "Q", "Q†"), "graded"),
        (("Q", "Q†"), "graded"),
        ((monomial(16, 0), monomial(0, 1)), "commutator-only"),
    ],
    ids=["minimal", "Q,Qdag", "a16,a"],
)
def test_closure_brackets_each_pair_once(gens, monkeypatch, seed, mode):
    calls = collections.Counter()
    original = superalgebra._bracket_in_mode

    def counting(x, y, bracket_mode):
        calls[frozenset((x, y))] += 1
        return original(x, y, bracket_mode)

    monkeypatch.setattr(superalgebra, "_bracket_in_mode", counting)
    seed = [gens[s] if isinstance(s, str) else s for s in seed]
    result = close_under_bracket(seed, mode, 24)
    assert result.generations > 1
    assert calls and max(calls.values()) == 1


# The closed basis reads its spans off the closure's own echelon; an echelon
# rebuilt from the listed elements must give the same answers.


@pytest.mark.parametrize(
    "seed, mode",
    [
        (("K3", "Q", "Q†"), "graded"),
        (("K+", "K-", "K3"), "graded"),
        (("Q", "Q†"), "graded"),
        (("Q", "Q†", "1"), "graded"),
        ((monomial(16, 0), monomial(0, 1)), "commutator-only"),
    ],
    ids=["minimal", "so21", "Q,Qdag", "heisenberg", "a16,a"],
)
def test_closure_basis_echelon_is_the_rebuilt_one(seed, mode):
    seed = [NAMED_CONSTANTS[s] if isinstance(s, str) else s for s in seed]
    shared = close_under_bracket(seed, mode, 24).basis
    rebuilt = AlgebraBasis(shared.elements)
    for (_, x), (_, y) in itertools.product(shared, repeat=2):
        for bracket in (graded_bracket(x, y).poly, commutator(x.poly, y.poly)):
            assert shared.span_coefficients(bracket) == rebuilt.span_coefficients(bracket)
    if mode == "graded":
        assert structure_constants(shared) == structure_constants(rebuilt)
    else:  # {a, a} = 2·a² escapes a commutator-only closure on both
        for basis in (shared, rebuilt):
            with pytest.raises(ValueError, match="bracket of Q and Q escapes"):
                structure_constants(basis)


def test_echelon_solves_int_keyed_vectors():
    # the echelon pivots on the keys' own order, so vectors keyed by index
    # (as coordinates in a basis are) use the same exact reduction
    r = Scalar(0, 1)  # √½
    v0 = {0: Scalar(1), 2: r}
    v1 = {1: Scalar(Fraction(3, 2)), 2: Scalar(-1)}
    v2 = {0: Scalar(2), 1: Scalar(0, Fraction(-3, 2)), 2: Scalar(0, 3)}  # 2·v0 − √½·v1
    echelon = superalgebra.Echelon()
    assert [echelon.add(v) for v in (v0, v1, v2)] == [True, True, False]
    for v in (v0, v1, v2):
        coeffs = echelon.coefficients(v)
        rebuilt = collections.defaultdict(Scalar)
        for c, u in zip(coeffs, (v0, v1)):
            for key, x in u.items():
                rebuilt[key] = rebuilt[key] + c * x
        assert {k: x for k, x in rebuilt.items() if x} == v
    assert echelon.coefficients(v2) == [Scalar(2), -r]
    assert echelon.coefficients({0: Scalar(1)}) is None
    assert echelon.coefficients({3: Scalar(1)}) is None


@settings(max_examples=100, deadline=None)
@given(graded_elements(), graded_elements())
def test_commutator_only_bracket_keeps_declared_parity(x, y):
    # every commutator-only bracket passes the constructor's parity check
    result = superalgebra._bracket_in_mode(x, y, "commutator-only")
    assert all(mono.parity == result.parity for mono, _ in result.poly.items())


def test_commutator_only_closure_validates_parity(gens, monkeypatch):
    # a bracket that breaks the grading is rejected, not stored in the basis
    monkeypatch.setattr(superalgebra, "commutator", lambda x, y: A + monomial(2, 0))
    with pytest.raises(ValueError):
        close_under_bracket([gens["K3"], gens["Q"], gens["Q†"]], "commutator-only", 8)


# -- basis validation ------------------------------------------------------------


def test_basis_rejects_duplicates_and_dependence(gens):
    with pytest.raises(ValueError):
        AlgebraBasis((("Q", gens["Q"]), ("Q", gens["Q†"])))
    doubled = GradedElement(gens["Q"].poly.scaled(2), gens["Q"].parity)
    with pytest.raises(ValueError):
        AlgebraBasis((("Q", gens["Q"]), ("Q2", doubled)))


def test_span_coefficients_exact(gens, osp_basis):
    combo = gens["K+"].poly.scaled(Fraction(2, 3)) - gens["K3"].poly.scaled(5)
    coeffs = osp_basis.span_coefficients(combo)
    assert coeffs == [
        Scalar(Fraction(2, 3)),
        Scalar(0),
        Scalar(-5),
        Scalar(0),
        Scalar(0),
    ]
    assert osp_basis.span_coefficients(monomial(3, 0)) is None


def test_span_edge_cases(gens, osp_basis):
    empty = AlgebraBasis(())
    assert empty.span_coefficients(ZERO) == []
    assert empty.span_coefficients(IDENTITY) is None
    assert osp_basis.span_coefficients(ZERO) == [Scalar(0)] * 5
    zero = GradedElement(ZERO, EVEN)
    with pytest.raises(ValueError):
        AlgebraBasis((("Z", zero),))
    with pytest.raises(ValueError):
        AlgebraBasis((("Q", gens["Q"]), ("Z", zero)))
    with pytest.raises(ValueError):
        close_under_bracket([zero], "graded", 8)
    with pytest.raises(ValueError):
        close_under_bracket([gens["Q"], zero], "graded", 8)


# Independent oracle: sympy's exact rank decides independence, and the
# coefficients are checked by rebuilding the polynomial.

_SMALL = [Fraction(k, d) for k in range(-2, 3) for d in (1, 2)]


def _random_scalar(rng):
    return Scalar(rng.choice(_SMALL), rng.choice(_SMALL))


def _random_element(rng):
    # parity-homogeneous, degree <= 6, a few terms drawn from a small pool so
    # that accidental dependence occurs
    parity = rng.randrange(2)
    pool = [(p, d - p) for d in range(parity, 7, 2) for p in range(d + 1)]
    terms = {m: _random_scalar(rng) for m in rng.sample(pool, rng.randint(1, 3))}
    return GradedElement(WeylPolynomial(terms), parity)


def _combination(coeffs, elements):
    total = ZERO
    for c, e in zip(coeffs, elements):
        total = total + e.poly.scaled(c)
    return total


def _sympy_rank(sympy, elements):
    monos = sorted({m for e in elements for m, _ in e.poly.items()})
    if not monos:
        return 0

    def exact(c):
        return sympy.Rational(c.a) + sympy.Rational(c.b) * sympy.sqrt(2) / 2

    matrix = sympy.Matrix(
        [[exact(e.poly.coefficient(*m)) for m in monos] for e in elements]
    )
    return matrix.rank(iszerofunc=lambda x: sympy.expand(x) == 0)


def test_independence_matches_sympy_rank():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261017)
    verdicts = set()
    for _ in range(60):
        elements = [_random_element(rng) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            # append an exact combination of some of them
            parity = elements[0].parity
            same = [e for e in elements if e.parity == parity]
            coeffs = [_random_scalar(rng) for _ in same]
            elements.append(GradedElement(_combination(coeffs, same), parity))
        independent = _sympy_rank(sympy, elements) == len(elements)
        named = tuple((f"E{k}", e) for k, e in enumerate(elements))
        try:
            AlgebraBasis(named)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == independent, [str(e) for e in elements]
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_span_coefficients_reconstruct_random_combinations():
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        elements = [_random_element(rng) for _ in range(rng.randint(1, 6))]
        try:
            basis = AlgebraBasis(tuple((f"E{k}", e) for k, e in enumerate(elements)))
        except ValueError:
            continue
        coeffs = [_random_scalar(rng) for _ in elements]
        poly = _combination(coeffs, elements)
        found = basis.span_coefficients(poly)
        assert found == coeffs
        assert _combination(found, elements) == poly
        # degree 7 lies beyond every basis element
        p = rng.randint(0, 7)
        outside = poly + monomial(p, 7 - p)
        assert basis.span_coefficients(outside) is None
        checked += 1
    assert checked >= 30


# -- structure constants ------------------------------------------------------------

# the complete nonzero tensor of the five-generator basis
EXPECTED_CONSTANTS = {
    ("K+", "K-", "K3"): Fraction(-2),
    ("K-", "K+", "K3"): Fraction(2),
    ("K3", "K+", "K+"): Fraction(1),
    ("K+", "K3", "K+"): Fraction(-1),
    ("K3", "K-", "K-"): Fraction(-1),
    ("K-", "K3", "K-"): Fraction(1),
    ("K3", "Q", "Q"): Fraction(-1, 2),
    ("Q", "K3", "Q"): Fraction(1, 2),
    ("K3", "Q†", "Q†"): Fraction(1, 2),
    ("Q†", "K3", "Q†"): Fraction(-1, 2),
    ("K+", "Q", "Q†"): Fraction(-1),
    ("Q", "K+", "Q†"): Fraction(1),
    ("K-", "Q†", "Q"): Fraction(1),
    ("Q†", "K-", "Q"): Fraction(-1),
    ("Q", "Q†", "K3"): Fraction(2),
    ("Q†", "Q", "K3"): Fraction(2),
    ("Q", "Q", "K-"): Fraction(2),
    ("Q†", "Q†", "K+"): Fraction(2),
}


def test_structure_constants_complete_table(osp_basis):
    sc = structure_constants(osp_basis)
    for i, j, k in itertools.product(GEN_ORDER, repeat=3):
        expected = EXPECTED_CONSTANTS.get((i, j, k), Fraction(0))
        assert constant(sc, i, j, k) == Scalar(expected), (i, j, k)


def test_structure_constant_kinds(osp_basis):
    sc = structure_constants(osp_basis)
    odd = {"Q", "Q†"}
    for i, j in itertools.product(GEN_ORDER, repeat=2):
        expected = "anticommutator" if {i, j} <= odd else "commutator"
        assert bracket_kind(sc, i, j) == expected


def test_structure_constants_graded_antisymmetry(osp_basis):
    # c[i][j][k] = -(-1)^(|i||j|) · c[j][i][k]
    sc = structure_constants(osp_basis)
    for i, j, k in itertools.product(range(5), repeat=3):
        sign = -1 if (sc.parities[i] * sc.parities[j]) % 2 else 1
        assert sc.tensor[i][j][k] == sc.tensor[j][i][k] * (-sign)


def test_structure_constants_need_closed_basis(gens):
    open_basis = AlgebraBasis((("K3", gens["K3"]), ("Q", gens["Q"])))
    with pytest.raises(ValueError):
        structure_constants(open_basis)
    # the error names the first escaping pair in row-major order
    with pytest.raises(ValueError, match=r"bracket of K\+ and K- escapes"):
        structure_constants(AlgebraBasis((("K+", gens["K+"]), ("K-", gens["K-"]))))


def test_structure_constants_bracket_each_unordered_pair_once(osp_basis, monkeypatch):
    calls = collections.Counter()
    original = superalgebra.graded_bracket

    def counting(x, y):
        calls[frozenset((x, y))] += 1
        return original(x, y)

    monkeypatch.setattr(superalgebra, "graded_bracket", counting)
    structure_constants(osp_basis)
    assert len(calls) == 15  # the 5·6/2 pairs i ≤ j of the 5-element basis
    assert max(calls.values()) == 1


# -- graded Jacobi -------------------------------------------------------------------


def test_jacobi_all_35_triples(osp_basis):
    report = graded_jacobi_check(osp_basis)
    assert len(report.checks) == 35
    assert report.passed


def test_jacobi_includes_repeated_entries(osp_basis):
    report = graded_jacobi_check(osp_basis)
    names = {c.name for c in report.checks}
    assert "jacobi(Q,Q,Q†)" in names


def test_jacobi_brackets_each_ordered_pair_once(osp_basis, monkeypatch):
    calls = collections.Counter()
    original = superalgebra.graded_bracket

    def counting(x, y):
        calls[x, y] += 1
        return original(x, y)

    monkeypatch.setattr(superalgebra, "graded_bracket", counting)
    assert graded_jacobi_check(osp_basis).passed
    assert sum(calls.values()) == osp_basis.dim**2
    assert max(calls.values()) == 1


@pytest.mark.parametrize(
    "parities", [(EVEN, EVEN, ODD), (EVEN, ODD, ODD), (ODD, ODD, ODD)], ids=["eeo", "eoo", "ooo"]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_jacobi_holds_on_non_closed_triples(parities, data):
    # the graded Jacobi identity holds for any homogeneous elements of an
    # associative superalgebra, so each of the fused sum's six signs shows;
    # distinct leading words (a†)^i a^(degree-i) over a random part of lower
    # degree keep the three elements independent
    elements = []
    for i, parity in enumerate(parities):
        degree = 4 if parity == EVEN else 3
        lead = monomial(i, degree - i, data.draw(nonzero_scalars))
        rest = data.draw(graded_elements(max_degree=2, max_terms=2, parity=parity))
        elements.append((f"x{i}", GradedElement(lead + rest.poly, parity)))
    report = graded_jacobi_check(AlgebraBasis(tuple(elements)))
    assert len(report.checks) == 10
    assert report.passed, report.failures


def test_jacobi_from_constants_passes(osp_basis):
    sc = structure_constants(osp_basis)
    report = jacobi_from_constants(sc)
    assert len(report.checks) == 35
    assert report.passed


def test_jacobi_detects_corrupted_constant(osp_basis):
    sc = structure_constants(osp_basis)
    tensor = [list(map(list, row)) for row in sc.tensor]
    qi, qj, k3 = sc.names.index("Q"), sc.names.index("Q†"), sc.names.index("K3")
    tensor[qi][qj][k3] = Scalar(3)  # should be 2
    corrupted = dataclasses.replace(
        sc, tensor=tuple(tuple(tuple(r) for r in row) for row in tensor)
    )
    report = jacobi_from_constants(corrupted)
    assert not report.passed
    assert report.failures


def test_identity_is_admissible_basis_member(gens):
    basis = AlgebraBasis(
        tuple((n, gens[n]) for n in GEN_ORDER)
        + (("1", GradedElement(IDENTITY, EVEN)),)
    )
    sc = structure_constants(basis)
    # the identity brackets to zero with everything
    for name in basis.names:
        for k in basis.names:
            assert constant(sc, "1", name, k) == Scalar(0)
