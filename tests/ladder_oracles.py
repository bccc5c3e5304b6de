"""Independent brute-force routes for checking the library.

Everything here deliberately avoids the closed-form contraction product,
`ExactAmplitude.root_sum` and the matrix builder: the rewriter applies the
single rule a·a† → a†·a + 1 one randomly chosen spot at a time, and the
ladder walkers apply one operator per step straight from
a|n⟩ = √n|n-1⟩, a†|n⟩ = √(n+1)|n+1⟩.  The exact amplitude oracle sends
every term through `normalise_radicals`, its own square-free merge (the
ExactAmplitude constructor goes through `root_sum`), and the entry-by-entry
matrix builder fills one band entry at a time.
The orbit reference takes its edges from `ladder_amplitude`, as `orbit`
does, and checks only the partition: a breadth-first search over
neighbour sets instead of union-find.  The residual reference likewise
shares the matrix builder: it reads its bands from `to_matrix` (tested
against the entry-by-entry builder) and multiplies them one `FockOperator`
pair at a time into zero-filled bands, the plain form of the band kernel's
arithmetic.  The norm reference takes the other road to the norms: it builds
x†x with the contraction product on every call and sums its diagonal words,
where `norm_condition` reads the exact Fock action `act` and builds no product.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

from oscalgebra.amplitudes import ExactAmplitude, square_free
from oscalgebra.fock import FockOperator, OrbitReport, ladder_amplitude, to_matrix
from oscalgebra.relations import all_relations
from oscalgebra.report import VerificationReport, numeric_check
from oscalgebra.scalar import Scalar
from oscalgebra.weyl import NAMED_CONSTANTS, WeylPolynomial, as_poly


def normal_order_word(word: tuple[str, ...], rng) -> dict[tuple[int, int], int]:
    """Normal order a word of "c" (creation) / "a" (annihilation) symbols,
    resolving rewrite spots in random order; returns {(p, q): multiplicity}."""
    counts: dict[tuple[int, int], int] = defaultdict(int)
    stack = [tuple(word)]
    while stack:
        w = stack.pop()
        spots = [i for i in range(len(w) - 1) if w[i] == "a" and w[i + 1] == "c"]
        if not spots:
            counts[(w.count("c"), w.count("a"))] += 1
            continue
        i = rng.choice(spots)
        stack.append(w[:i] + ("c", "a") + w[i + 2 :])
        stack.append(w[:i] + w[i + 2 :])
    return dict(counts)


def rewrite_multiply(x: WeylPolynomial, y: WeylPolynomial, rng) -> WeylPolynomial:
    """Product of two polynomials via the randomly scheduled rewriter."""
    acc: dict[tuple[int, int], Scalar] = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            word = ("c",) * mx.p + ("a",) * mx.q + ("c",) * my.p + ("a",) * my.q
            for key, mult in normal_order_word(word, rng).items():
                acc[key] = acc.get(key, Scalar(0)) + cx * cy * mult
    return WeylPolynomial(acc)


def monomial_target_and_square(p: int, q: int, n: int) -> tuple[int, Fraction]:
    """Apply a q times then a† p times to |n⟩, one step at a time.

    Returns (target index, squared amplitude) with the square exact: each
    step multiplies it by the integer under the root.
    """
    square = Fraction(1)
    state = n
    for _ in range(q):
        square *= state  # zero once the ladder hits the bottom
        state -= 1
    if square == 0:
        return state + p, Fraction(0)
    for _ in range(p):
        state += 1
        square *= state
    return state, square


def apply_poly_numeric(poly: WeylPolynomial, n: int) -> dict[int, float]:
    """x|n⟩ by floating one-operator-at-a-time ladder steps."""
    out: dict[int, float] = defaultdict(float)
    for mono, coeff in poly.items():
        state = n
        amp = float(coeff)
        for _ in range(mono.q):
            amp *= math.sqrt(max(state, 0))
            state -= 1
        if amp == 0.0:
            continue
        for _ in range(mono.p):
            state += 1
            amp *= math.sqrt(state)
        out[state] += amp
    return {k: v for k, v in out.items() if v != 0.0}


def to_matrix_by_entries(poly: WeylPolynomial, dim: int, dtype) -> dict[int, np.ndarray]:
    """Bands {offset: length-dim vector} of the truncated matrix, one entry
    at a time: coeff·√(radicand) with coeff = a + b·√½ at `dtype` and the
    radicand the exact integer square of the stepwise ladder amplitude."""
    bands: dict[int, np.ndarray] = {}
    for mono, coeff in poly.items():
        columns = range(mono.q, min(dim, dim - mono.offset))
        if not columns:
            continue
        a = dtype(coeff.a.numerator) / dtype(coeff.a.denominator)
        b = dtype(coeff.b.numerator) / dtype(coeff.b.denominator)
        value = a + b * np.sqrt(dtype(0.5))
        band = bands.setdefault(mono.offset, np.zeros(dim, dtype=dtype))
        for n in columns:
            _, square = monomial_target_and_square(mono.p, mono.q, n)
            band[n] += value * np.sqrt(dtype(int(square)))
    return bands


def norm_condition_by_rebuild(n: int) -> tuple[Fraction, Fraction]:
    """`fock.norm_condition` through x†x: the normal-ordered product K±†K±
    is formed afresh on every call and its diagonal words summed at n."""
    values = []
    for name in ("K+", "K-"):
        x = NAMED_CONSTANTS[name].poly
        diagonal = ((mono.p, c) for mono, c in (x.adjoint() * x).items() if mono.p == mono.q)
        values.append(sum((c * math.perm(n, p) for p, c in diagonal), Scalar(0)).as_fraction())
    return values[0], values[1]


def normalise_radicals(terms) -> ExactAmplitude:
    """Σ c·√k from (coefficient, positive radicand) pairs, one term at a
    time: each radicand split by `square_free`, its outer factor moved into
    the coefficient, like terms summed, zeros dropped."""
    data: dict[int, Fraction] = {}
    for coeff, radicand in terms:
        outer, free = square_free(radicand)
        data[free] = data.get(free, 0) + Fraction(coeff) * outer
    return ExactAmplitude._reduced(data)


def ladder_amplitude_by_normalising(poly: WeylPolynomial, n: int) -> dict:
    """Exact x|n⟩ keyed by target index, composed as Σ c·√(Π factors).

    A coefficient c = a + b·√½ on a monomial whose squared ladder amplitude
    is s contributes a·√s + (b/2)·√(2s); each target's terms are then
    merged and reduced by `normalise_radicals`, which factors every
    radicand again.  Zero targets are dropped.
    """
    terms: dict[int, list] = defaultdict(list)
    for mono, coeff in poly.items():
        target, square = monomial_target_and_square(mono.p, mono.q, n)
        if square:
            terms[target] += [(coeff.a, int(square)), (coeff.b / 2, 2 * int(square))]
    amps = {target: normalise_radicals(t) for target, t in sorted(terms.items())}
    return {target: amp for target, amp in amps.items() if amp}


def is_reduced(amp: ExactAmplitude) -> bool:
    """Reduced form: distinct square-free radicands in ascending order, each
    with a nonzero Fraction coefficient (square-freeness by brute force)."""
    radicands = [k for k, _ in amp.terms]
    return (
        radicands == sorted(set(radicands))
        and all(k % (d * d) for k in radicands for d in range(2, math.isqrt(k) + 1))
        and all(isinstance(c, Fraction) and c != 0 for _, c in amp.terms)
    )


def orbit_by_bfs(seed: int, generators, dim: int) -> OrbitReport:
    """The orbit partition by breadth-first search: an edge n ↔ m inside the
    trusted window [0, dim − 2·degree) wherever some generator's exact
    amplitude n → m is nonzero; blocks ordered by smallest state."""
    named = [(name, as_poly(g)) for name, g in generators.items()]
    window = dim - 2 * max(poly.degree for _, poly in named)
    neighbors: list[set[int]] = [set() for _ in range(window)]
    for n in range(window):
        for _, poly in named:
            for m in ladder_amplitude(poly, n):
                if m != n and m < window:
                    neighbors[n].add(m)
                    neighbors[m].add(n)  # adjoint direction

    partition = []
    seen: set[int] = set()
    for start in range(window):
        if start in seen:
            continue
        block, queue = [], [start]
        seen.add(start)
        while queue:
            v = queue.pop()
            block.append(v)
            for w in neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        partition.append(tuple(sorted(block)))
    return OrbitReport(
        seed=seed,
        generator_names=tuple(name for name, _ in named),
        window=window,
        reachable=next(block for block in partition if seed in block),
        partition=tuple(partition),
    )


def diagonal_product(x: FockOperator, y: FockOperator) -> FockOperator:
    """Matrix product x·y by convolving diagonals into zero-filled bands,
    out[dx+dy][n] += x[dx][n+dy]·y[dy][n], both offsets descending."""
    dim = x.dim
    out: dict[int, np.ndarray] = {}
    for dx in sorted(x.bands, reverse=True):
        for dy in sorted(y.bands, reverse=True):
            d = dx + dy
            if abs(d) >= dim:
                continue
            lo, hi = max(0, -dy), min(dim, dim - dy)
            band = out.setdefault(d, np.zeros_like(y.bands[dy]))
            band[lo:hi] += x.bands[dx][lo + dy : hi + dy] * y.bands[dy][lo:hi]
    return FockOperator(dim, out)


def relation_residuals_by_products(dim: int, tolerance: float = 1e-12, relations=None):
    """`fock.relation_residuals` the long way: one `to_matrix` per operand
    and right side, one `diagonal_product` per product, each product weighted
    as 0 + c·band; the same dtype and summation order, so the same digits."""
    relations = all_relations() if relations is None else relations
    dtype = np.longdouble
    matrix = functools.cache(functools.partial(to_matrix, dim=dim, dtype=dtype))
    report = VerificationReport()
    for rel in relations:
        diff: dict[int, np.ndarray] = {}
        # each term is x·y at weight c, then y·x at weight -σ·c
        for c, x, y, sigma in rel.products:
            for w, u, v in ((c, x, y), (-sigma * c, y, x))[: 2 if sigma else 1]:
                for d, band in diagonal_product(matrix(u), matrix(v)).bands.items():
                    diff[d] = diff.get(d, 0) + dtype(w) * band
        for d, band in to_matrix(rel.rhs, dim, dtype).bands.items():
            diff[d] = diff.get(d, 0) - band
        diff = {d: np.abs(band) for d, band in diff.items()}
        t = dim - rel.window_margin
        window = (b[max(0, -d) : max(min(t, t - d), 0)] for d, b in diff.items())
        window_residual = float(max((w.max(initial=0) for w in window), default=0))
        full_residual = float(max((b.max() for b in diff.values()), default=0))
        detail = f"window {t}×{t} of {dim}; full-matrix residual {full_residual:.3e}"
        report.checks.append(numeric_check(rel.name, window_residual, tolerance, detail=detail))
    return report
