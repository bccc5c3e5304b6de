import dataclasses
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladder_oracles import (
    apply_poly_numeric,
    diagonal_product,
    is_reduced,
    ladder_amplitude_by_normalising,
    monomial_target_and_square,
    norm_condition_by_rebuild,
    normalise_radicals,
    orbit_by_bfs,
    relation_residuals_by_products,
    to_matrix_by_entries,
)
from oscalgebra.amplitudes import ExactAmplitude
from oscalgebra.fock import (
    FockOperator,
    act,
    ladder_amplitude,
    norm_condition,
    orbit,
    padded_product,
    parity_matrix,
    relation_residuals,
    spectrum,
    to_matrix,
)
from oscalgebra.relations import CASIMIR_NAME, Relation, all_relations
from oscalgebra.scalar import Scalar
from oscalgebra.weyl import (
    A,
    ADAG,
    IDENTITY,
    WeylPolynomial,
    casimir,
    commutator,
    hamiltonian,
    monomial,
    standard_generators,
)
from strategies import nonzero_scalars, weyl_polys


@pytest.fixture(scope="module")
def gens():
    return standard_generators()


def so21_set(gens):
    return {n: gens[n] for n in ("K+", "K-", "K3")}


def osp_set(gens):
    return {n: gens[n] for n in ("K+", "K-", "K3", "Q", "Q†")}


# -- matrix construction ----------------------------------------------------------


def test_annihilator_matrix():
    m = to_matrix(A, 3)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2)
    assert np.array_equal(m.entries, expected)
    assert sorted(m.bands) == [-1]


def test_k3_matrix_is_diagonal(gens):
    m = to_matrix(gens["K3"], 6)
    assert np.array_equal(m.entries, np.diag([(n + 0.5) / 2 for n in range(6)]))


def test_casimir_matrix_exact():
    m = to_matrix(casimir(), 8)
    assert np.array_equal(m.entries, np.eye(8) * (3 / 16))


def test_band_discipline(gens):
    assert sorted(to_matrix(gens["K+"], 8).bands) == [2]
    assert sorted(to_matrix(gens["K-"], 8).bands) == [-2]
    assert sorted(to_matrix(gens["Q"], 8).bands) == [-1]
    poly = gens["K+"].poly + gens["K3"].poly
    assert sorted(to_matrix(poly, 8).bands) == [0, 2]


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        to_matrix(A, 0)


@settings(max_examples=200, deadline=None)
@given(weyl_polys(max_degree=4), st.integers(1, 32))
def test_adjoint_matches_transpose_exactly(poly, dim):
    left = to_matrix(poly.adjoint(), dim).entries
    right = to_matrix(poly, dim).entries.T
    assert np.array_equal(left, right)


@settings(max_examples=200, deadline=None)
@given(weyl_polys(max_degree=4), st.integers(1, 32))
def test_matrix_column_matches_stepwise_ladder(poly, dim):
    matrix = to_matrix(poly, dim).entries
    for n in range(dim):
        expected = apply_poly_numeric(poly, n)
        for m in range(dim):
            assert matrix[m, n] == pytest.approx(
                expected.get(m, 0.0), abs=1e-12, rel=1e-12
            )


def assert_same_bands(poly, dim, dtype):
    bands = to_matrix(poly, dim, dtype).bands
    expected = to_matrix_by_entries(poly, dim, dtype)
    assert bands.keys() == expected.keys()
    for d, band in bands.items():
        assert band.dtype == dtype
        assert np.array_equal(band, expected[d]), (poly, dim, dtype, d)


@settings(max_examples=200, deadline=None)
@given(
    weyl_polys(max_degree=4),
    st.integers(1, 64),
    st.sampled_from((np.float64, np.longdouble)),
)
def test_bands_match_entry_by_entry_builder_bit_for_bit(poly, dim, dtype):
    assert_same_bands(poly, dim, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("p,q,dim", [(8, 8, 300), (16, 0, 2000)])
def test_bands_past_int64_radicands_match_entry_by_entry_builder(p, q, dim, dtype):
    # the last column's radicand passes 2**63, so it is built from Python ints
    _, square = monomial_target_and_square(p, q, dim - 1 - max(p - q, 0))
    assert square >= 2**63
    assert_same_bands(monomial(p, q, Scalar(Fraction(3, 7), Fraction(-5, 2))), dim, dtype)


# -- spectrum ------------------------------------------------------------------------


def test_spectrum_examples():
    assert spectrum(4, 1) == [0.5, 1.5, 2.5, 3.5]
    assert spectrum(1, 2) == [1.0]


def test_spectrum_exact_and_equally_spaced():
    energies = spectrum(8, 1)
    assert all(energies[n] == n + 0.5 for n in range(8))
    assert all(b - a == 1.0 for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("n", [0, 1, 2999, 999999])
def test_spectrum_is_the_exact_action_of_h(n):
    # H|n⟩ = (n + ½)|n⟩ exactly, and the closed-form energy is that value
    energy = Fraction(2 * n + 1, 2)
    assert act(hamiltonian(), n) == {0: Scalar(energy)}
    assert spectrum(n + 1, 1)[n] == float(energy)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        spectrum(0, 1)
    for bad in (0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            spectrum(4, bad)


def test_spectrum_rejects_overflowing_top_energy():
    # ħω is finite, but the top energy ħω·(dim - ½) is not
    with pytest.raises(ValueError, match="top energy"):
        spectrum(3, 1e308)
    assert spectrum(1, 1e308) == [5e307]


# -- parity ------------------------------------------------------------------------


def test_parity_diagonal():
    assert np.array_equal(np.diag(parity_matrix(3).entries), [1.0, -1.0, 1.0])


def test_parity_commutes_with_even_generators(gens):
    p = parity_matrix(16).entries
    for name in ("K+", "K-", "K3"):
        m = to_matrix(gens[name], 16).entries
        assert np.array_equal(p @ m - m @ p, np.zeros((16, 16)))


def test_parity_anticommutes_with_odd_generators(gens):
    p = parity_matrix(16).entries
    for name in ("Q", "Q†"):
        m = to_matrix(gens[name], 16).entries
        assert np.array_equal(p @ m + m @ p, np.zeros((16, 16)))


# -- exact amplitudes -----------------------------------------------------------------


def test_ladder_amplitude_examples(gens):
    assert ladder_amplitude(ADAG, 0) == {1: ExactAmplitude([(1, 1)])}
    assert ladder_amplitude(gens["K+"], 0) == {
        2: ExactAmplitude([(Fraction(1, 2), 2)])
    }
    assert ladder_amplitude(gens["K-"], 1) == {}
    assert ladder_amplitude(A, 0) == {}


def test_ladder_amplitude_negative_index_rejected():
    with pytest.raises(ValueError):
        ladder_amplitude(A, -1)


def test_ladder_amplitude_merges_targets(gens):
    # a†a + ½ is diagonal: single target with the exact eigenvalue
    amps = ladder_amplitude(hamiltonian(), 5)
    assert amps == {5: ExactAmplitude([(Fraction(11, 2), 1)])}


def test_ladder_amplitude_exact_cancellation():
    poly = monomial(1, 1) - monomial(0, 0, 3)
    # (a†a - 3)|3⟩ = 0 exactly: the empty map, not a tiny float
    assert ladder_amplitude(poly, 3) == {}
    # a†²a²|3⟩ = 3·2|3⟩ cancels 2·a†a|3⟩ across two monomials
    assert 3 not in ladder_amplitude(monomial(2, 2) - monomial(1, 1, 2), 3)


def test_casimir_acts_as_constant_on_states():
    assert ladder_amplitude(casimir(), 5) == {
        5: ExactAmplitude([(Fraction(3, 16), 1)])
    }


def _random_poly(rng: random.Random, n: int) -> WeylPolynomial:
    """Up to five monomials of degree ≤ 6 with Q(√½) coefficients, plus, half
    of the time, a pair of monomials on one offset d that cancel exactly on |n⟩."""

    def fraction() -> Fraction:
        return Fraction(rng.choice((0, rng.randint(-9, 9))), rng.randint(1, 4))

    terms: dict[tuple[int, int], Scalar] = {}
    for _ in range(rng.randint(1, 5)):
        p = rng.randint(0, 6)
        terms[p, rng.randint(0, 6 - p)] = Scalar(fraction(), fraction())
    if rng.random() < 0.5:
        # a†^(j+d)a^j and a†^(k+d)a^k both send |n⟩ to |n+d⟩, and their squared
        # amplitudes differ by a rational square, so c′ = -c·ratio cancels c there
        d = rng.randint(-2, 2)
        j, k = rng.sample(range(max(1, -d), max(1, -d) + 3), 2)
        _, sj = monomial_target_and_square(j + d, j, n)
        _, sk = monomial_target_and_square(k + d, k, n)
        if sj and sk:
            square = sj / sk
            ratio = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
            assert ratio * ratio == square
            c = Scalar(fraction(), fraction())
            terms[j + d, j] = c
            terms[k + d, k] = -c * ratio
    return WeylPolynomial(terms)


def test_ladder_amplitude_matches_normalising_oracle():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(0, 200)
        poly = _random_poly(rng, n)
        amps = ladder_amplitude(poly, n)
        assert amps == ladder_amplitude_by_normalising(poly, n), (poly, n)
        assert list(amps) == sorted(amps)
        assert all(is_reduced(amp) for amp in amps.values())


def test_act_matches_normalising_oracle():
    # √ρ_d(n)·S_d(n) goes into the radicands, so the check bypasses `root_sum`
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(0, 200)
        poly = _random_poly(rng, n)
        expected = ladder_amplitude_by_normalising(poly, n)
        sums = act(poly, n)
        assert list(sums) == [m - n for m in sorted(expected)], (poly, n)
        for d, s in sums.items():
            rho = math.prod(range(min(n, n + d) + 1, max(n, n + d) + 1))
            assert normalise_radicals([(s.a, rho), (s.b / 2, 2 * rho)]) == expected[n + d]


def test_act_negative_index_rejected():
    with pytest.raises(ValueError):
        act(A, -1)
    with pytest.raises(ValueError):
        norm_condition(-1)


@pytest.mark.parametrize("k", range(1, 9))
def test_act_k_photon_structure_function(k):
    # [a^k, a†^k]|n⟩ = ((n+k)!/n! - n!/(n-k)!)|n⟩, exactly, on the Fock side
    bracket = commutator(monomial(0, k), monomial(k, 0))
    for n in [*range(40), 10**12]:
        rising = math.prod(range(n + 1, n + k + 1))
        falling = math.prod(range(n - k + 1, n + 1)) if n >= k else 0
        assert act(bracket, n) == {0: Scalar(rising - falling)}, (k, n)


@settings(max_examples=200, deadline=None)
@given(weyl_polys(max_degree=4), st.integers(0, 24))
def test_ladder_amplitude_matches_stepwise_oracle(poly, n):
    amps = ladder_amplitude(poly, n)
    expected = apply_poly_numeric(poly, n)
    targets = set(amps) | set(expected)
    for target in targets:
        exact = float(amps.get(target, ExactAmplitude.zero()))
        assert exact == pytest.approx(expected.get(target, 0.0), abs=1e-12, rel=1e-12)


# -- norm conditions ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [(0, (Fraction(1, 2), Fraction(0))), (1, (Fraction(3, 2), Fraction(0))),
     (2, (Fraction(3), Fraction(1, 2)))],
)
def test_norm_condition_values(n, expected):
    assert norm_condition(n) == expected


def test_norm_condition_against_stepwise_squares():
    # independent route: one ladder step at a time, squared amplitudes as
    # exact integer products, with the (1/2)² from the bilinear prefactor
    for n in range(32):
        _, up = monomial_target_and_square(2, 0, n)
        _, down = monomial_target_and_square(0, 2, n)
        assert norm_condition(n) == (up / 4, down / 4)


def test_norm_condition_closed_forms():
    for n in range(3000):
        plus, minus = norm_condition(n)
        assert plus >= 0 and minus >= 0
        assert plus == Fraction((n + 1) * (n + 2), 4)
        assert minus == Fraction(n * (n - 1), 4)
        m = Fraction(2 * n + 1, 4)
        assert plus == Fraction(3, 16) + m * (m + 1)
        assert minus == Fraction(3, 16) + m * (m - 1)


def test_norm_condition_matches_rebuilt_product():
    # the norms read off `act` equal those of a freshly built x†x
    for n in [*range(3000), 10**6, 10**12, 2**63 + 5]:
        assert norm_condition(n) == norm_condition_by_rebuild(n), n


def test_norm_condition_reads_no_amplitudes(monkeypatch):
    # the norms come from the exact sums of `act`, not from amplitudes
    def forbidden(*args, **kwargs):
        raise AssertionError("norm_condition built an amplitude")

    monkeypatch.setattr("oscalgebra.fock.ladder_amplitude", forbidden)
    monkeypatch.setattr(ExactAmplitude, "root_sum", forbidden)
    assert norm_condition(7) == (Fraction(18), Fraction(21, 2))


# -- orbits ------------------------------------------------------------------------


def test_even_seed_reaches_even_sector(gens):
    report = orbit(0, so21_set(gens), 64)
    assert report.window == 60
    assert report.reachable == tuple(range(0, 60, 2))
    assert report.orbit_count == 2


def test_odd_seed_reaches_odd_sector(gens):
    report = orbit(3, so21_set(gens), 64)
    assert report.reachable == tuple(range(1, 60, 2))


def test_orbit_partition_matches_parity_eigenspaces(gens):
    report = orbit(0, so21_set(gens), 64)
    signs = np.diag(parity_matrix(64).entries)
    even = tuple(n for n in range(report.window) if signs[n] == 1.0)
    odd = tuple(n for n in range(report.window) if signs[n] == -1.0)
    assert set(report.partition) == {even, odd}


def test_odd_generators_connect_everything(gens):
    for seed in (0, 7, 31):
        report = orbit(seed, {"Q": gens["Q"], "Q†": gens["Q†"]}, 64)
        assert report.window == 62
        assert report.reachable == tuple(range(62))
        assert report.orbit_count == 1


def test_full_five_generator_set_single_orbit(gens):
    report = orbit(7, osp_set(gens), 64)
    assert report.orbit_count == 1


def test_orbit_partitions_at_dim_3000(gens):
    osp = orbit(0, osp_set(gens), 3000)
    assert osp.partition == (tuple(range(2996)),)
    so21 = orbit(1, so21_set(gens), 3000)
    assert so21.partition == (tuple(range(0, 2996, 2)), tuple(range(1, 2996, 2)))
    assert so21.reachable == so21.partition[1]


def test_diagonal_generator_gives_singletons(gens):
    report = orbit(5, {"K3": gens["K3"]}, 64)
    assert report.reachable == (5,)
    assert report.orbit_count == report.window


def test_planted_root_splits_off_a_finite_block():
    # a†²a − 3a† = a†(a†a − 3): the edge n → n+1 vanishes exactly at n = 3
    report = orbit(0, {"x": ADAG * ADAG * A - ADAG.scaled(3)}, 20)
    assert report.partition == ((0, 1, 2, 3), tuple(range(4, 14)))
    assert report.reachable == (0, 1, 2, 3)


@st.composite
def orbit_generators(draw):
    """1–3 nonzero polynomials: random ones, one-directional standard
    generators, and c·a†ᵏ(a†a − r) with an edge n → n+k missing at n = r."""
    planted = st.builds(
        lambda c, k, r: (monomial(k + 1, 1) - monomial(k, 0, r)).scaled(c),
        nonzero_scalars, st.integers(0, 2), st.integers(0, 6),
    )
    standard = st.sampled_from([g.poly for g in standard_generators().values()])
    pick = st.one_of(weyl_polys(max_degree=3).filter(bool), planted, standard)
    polys = draw(st.lists(pick, min_size=1, max_size=3))
    return {f"x{i}": poly for i, poly in enumerate(polys)}


@settings(max_examples=60, deadline=None)
@given(orbit_generators(), st.integers(12, 40), st.data())
def test_orbit_equals_bfs(generators, dim, data):
    window = dim - 2 * max(poly.degree for poly in generators.values())
    seed = data.draw(st.integers(0, window - 1))
    assert orbit(seed, generators, dim) == orbit_by_bfs(seed, generators, dim)


def test_orbit_memory_per_state_is_small(gens):
    orbit(0, osp_set(gens), 64)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        report = orbit(0, osp_set(gens), 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * report.window  # a neighbour set per state costs about 350 B


def test_orbit_seed_validation(gens):
    with pytest.raises(ValueError):
        orbit(60, so21_set(gens), 64)  # window is [0, 60)
    with pytest.raises(ValueError):
        orbit(-1, so21_set(gens), 64)
    with pytest.raises(ValueError):
        orbit(0, {}, 64)


# -- banded product and residual suite ---------------------------------------------


# entries of up to 10⁴ that cancel to near zero: a fixed absolute tolerance
# misses the two summation orders' round-off there
CANCELLING_PAIR = (
    WeylPolynomial({
        (1, 2): Scalar(Fraction(2, 5), Fraction(25, 8)),
        (2, 1): Scalar(4, Fraction(25, 8)),
    }),
    WeylPolynomial({
        (0, 3): Scalar(Fraction(8, 3), Fraction(-1, 5)),
        (1, 2): Scalar(Fraction(-5, 3), Fraction(-26, 7)),
    }),
)


@settings(max_examples=100, deadline=None)
@given(weyl_polys(max_degree=3), weyl_polys(max_degree=3), st.integers(2, 24))
@example(*CANCELLING_PAIR, 9)
def test_band_product_equals_dense_product(x, y, dim):
    a = to_matrix(x, dim)
    b = to_matrix(y, dim)
    pad = max(map(abs, b.bands), default=0)
    padded = [{d: np.pad(band, pad) for d, band in m.bands.items()} for m in (a, b)]
    bands = padded_product(*padded, dim, pad)
    product = FockOperator(dim, bands).entries
    # two float summation orders of the same n-term dot products differ by at
    # most 2·n·u·(|A|·|B|) entrywise, u the float64 unit roundoff
    bound = 2 * dim * (np.finfo(np.float64).eps / 2) * (np.abs(a.entries) @ np.abs(b.entries))
    assert np.all(np.abs(product - a.entries @ b.entries) <= bound)
    # to the last bit, the entries of one zero-filled band product per pair
    expected = diagonal_product(a, b).bands
    assert bands.keys() == expected.keys()
    assert all(np.array_equal(bands[d], expected[d]) for d in expected)


@pytest.mark.parametrize("dim", [9, 16, 64, 256, 1024, 8192])
def test_band_kernel_matches_reference_row_for_row(dim):
    # the same digits as one zero-filled product per FockOperator pair; at
    # 8192 the [K+,K-] = -2·K3 window residual is 1.8e-12, a failing row
    kernel = [c.as_dict() for c in relation_residuals(dim).checks]
    reference = [c.as_dict() for c in relation_residuals_by_products(dim).checks]
    assert kernel == reference
    assert (dim == 8192) == any(row["status"] == "fail" for row in kernel)


def test_band_kernel_matches_reference_on_planted_wrong_relations():
    # the true relations' products and margins, with a wrong right side
    true = {rel.name: rel for rel in all_relations()}
    planted = [
        dataclasses.replace(true[CASIMIR_NAME], rhs=IDENTITY.scaled(Fraction(1, 4))),
        dataclasses.replace(
            true["[K+,Q] = -Q†"], name="[K+,Q] = -2·Q†", rhs=true["[K+,Q] = -Q†"].rhs.scaled(2)
        ),
    ]
    kernel = relation_residuals(64, 1e-12, planted).checks
    reference = relation_residuals_by_products(64, 1e-12, planted).checks
    assert [c.as_dict() for c in kernel] == [c.as_dict() for c in reference]
    assert [c.status for c in kernel] == ["fail", "fail"]


def test_band_kernel_matches_reference_on_multi_band_operands():
    # x has five bands and two monomials on its diagonal, so up to five
    # diagonal pairs of x·x share an offset and their summation order shows
    # in the last bits; the true x·x = x² leaves only that round-off
    gens = standard_generators()
    x = sum((gens[n].poly for n in ("K+", "K-", "K3", "Q", "Q†")), WeylPolynomial())
    square = [Relation("x·x = x²", ((1, x, x, 0),), x * x, 2 * x.degree)]
    for dim in (16, 64, 256):
        kernel = relation_residuals(dim, 1e-12, square).checks
        reference = relation_residuals_by_products(dim, 1e-12, square).checks
        assert [c.as_dict() for c in kernel] == [c.as_dict() for c in reference]
        assert kernel[0].status == "pass"
        m = to_matrix(x, dim, np.longdouble)
        padded = {d: np.pad(band, x.degree) for d, band in m.bands.items()}
        product = padded_product(padded, padded, dim, x.degree)
        expected = diagonal_product(m, m).bands
        assert product.keys() == expected.keys()
        assert all(np.array_equal(product[d], expected[d]) for d in expected)


@pytest.mark.parametrize("dim", [16, 64])
def test_relation_residuals_pass(dim):
    report = relation_residuals(dim)
    assert len(report.checks) == 16
    assert report.passed
    assert all(c.residual <= 1e-12 for c in report.checks)


def test_residual_report_shows_truncation_without_failing():
    report = relation_residuals(64)
    entry = next(c for c in report.checks if c.name == "[K+,K-] = -2·K3")
    assert entry.status == "pass"
    full = float(re.search(r"full-matrix residual ([\d.e+-]+)", entry.detail).group(1))
    assert full > 1.0  # the artifact above the window is reported, not fatal


def test_relation_residuals_builds_no_dense_matrix():
    tracemalloc.start()
    try:
        relation_residuals(2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # one dense 2048×2048 longdouble matrix is 64 MiB


def test_relation_residuals_window_too_small():
    with pytest.raises(ValueError):
        relation_residuals(8)  # quadratic-invariant margin is 8


def test_truncation_artifact_outside_window(gens):
    # float64 route on purpose: the identity genuinely breaks at the cutoff
    dim = 32
    kp = to_matrix(gens["K+"], dim).entries
    km = to_matrix(gens["K-"], dim).entries
    k3 = to_matrix(gens["K3"], dim).entries
    diff = np.abs((kp @ km - km @ kp) - (-2.0) * k3)
    window = dim - 4
    assert diff[:window, :window].max() <= 1e-12
    assert diff.max() > 1.0


# -- states ---------------------------------------------------------------------------


def test_repeated_raising_reproduces_basis_states(gens):
    dim = 16
    raise_op = to_matrix(gens["Q†"], dim).entries
    basis = np.eye(dim)
    state = basis[0]
    for n in range(1, dim - 2):
        state = raise_op @ state
        state = state / np.linalg.norm(state)
        overlap = np.vdot(state, basis[n])
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
