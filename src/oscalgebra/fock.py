"""Truncated Fock-space realization of the ladder algebra.

A normal-ordered word acts on the number basis through

    a|n⟩ = √n |n-1⟩,      a†|n⟩ = √(n+1) |n+1⟩,

so the N×N matrix of a monomial (a†)^p a^q lives on the single diagonal
offset p-q with entries √(n!/(n-q)!)·√(m!/(n-q)!), m = n-q+p.  Operators
are therefore stored by diagonal: O(bands·N) memory, O(bands²·N) products.
Stored entries are exact truncations of the infinite matrix; truncation error
enters only through matrix products, and only within 2·degree rows of the
cutoff.  That gives every product check a trusted window of exact indices.

The residual suite runs one band kernel per call: each monomial's √radicand
is built once, zero-padded operand bands make a diagonal pair's product one
slice multiply, and a ±1 weight is an add or a subtract.  Every entry sums
its terms in a fixed order (see `padded_product`), so no residual digit moves.

Exactly, x|n⟩ = Σ_d √ρ_d(n)·S_d(n)|n+d⟩ with ρ_d(n) the product of the integers
from min(n, n+d)+1 to max(n, n+d) and S_d(n) in Q(√½), one sum per offset (`act`).
The orbit's edges n → n+d are its nonzero offsets, so no float enters them,
and H = a†a + ½ has the one offset 0 with S_0(n) = n + ½: the energies
ħω(n+½) of `spectrum` are that closed form, built without a matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .amplitudes import ExactAmplitude
from .relations import all_relations
from .report import VerificationReport, numeric_check
from .scalar import ZERO, Scalar, _reduced
from .weyl import NAMED_CONSTANTS, as_poly


@dataclass(frozen=True)
class FockOperator:
    """Truncation of an operator to the first `dim` number states, stored by
    diagonal (the DIA sparse format).

    `bands[d]` is the diagonal row - column = d as a length-`dim` vector
    indexed by column n; it holds 0 wherever row n+d falls outside the
    truncation.  Offsets without an entry are zero.
    """

    dim: int
    bands: dict[int, np.ndarray]

    @property
    def entries(self) -> np.ndarray:
        """Dense N×N view, built on demand (for tests and small dims)."""
        dtype = np.result_type(np.float64, *self.bands.values())
        dense = np.zeros((self.dim, self.dim), dtype=dtype)
        for d, band in self.bands.items():
            cols = np.arange(max(0, -d), min(self.dim, self.dim - d))
            dense[cols + d, cols] = band[cols]
        return dense


def _scalar_value(c: Scalar, dtype) -> float:
    terms = ((dtype(v.numerator) / dtype(v.denominator), dtype(k)) for k, v in c.radicals())
    return sum((v * np.sqrt(k) for v, k in terms), dtype(0))


def _shift_factors(p: int, q: int, n: int | np.ndarray) -> list:
    """Integer factors whose product is the squared amplitude of
    (a†)^p a^q |n⟩ (valid for n ≥ q); n is an int or an array of columns."""
    return [n - i for i in range(q)] + [n - q + j for j in range(1, p + 1)]


def _band_builder(dim: int, dtype):
    """bands(x, pad) → x's truncated matrix as {offset: band padded by `pad`
    zeros at both ends}.  Each monomial's root is taken once per builder from
    an exact integer radicand (int64 or Python int), rounded only by the cast."""

    @functools.cache
    def root(p: int, q: int) -> np.ndarray:
        hi = min(dim, dim - p + q)
        # the factors grow with n, so the last column holds the largest radicand
        fits = math.prod(_shift_factors(p, q, hi - 1)) < 2**63
        n = np.arange(q, hi, dtype=np.int64 if fits else object)
        return np.sqrt(math.prod(_shift_factors(p, q, n), start=np.ones_like(n)).astype(dtype))

    def bands(x, pad: int = 0) -> dict[int, np.ndarray]:
        out: dict[int, np.ndarray] = {}
        for mono, coeff in as_poly(x).items():
            hi = min(dim, dim - mono.offset)
            if hi > mono.q:
                band = out.setdefault(mono.offset, np.zeros(dim + 2 * pad, dtype=dtype))
                band[pad + mono.q : pad + hi] += _scalar_value(coeff, dtype) * root(mono.p, mono.q)
        return out

    return bands


def to_matrix(x, dim: int, dtype=np.float64) -> FockOperator:
    """Truncated matrix of a polynomial; entry (m, n) sums, over monomials
    with offset m-n, coeff·√(n!/(n-q)!)·√(m!/(n-q)!), in monomial order."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return FockOperator(dim, _band_builder(dim, dtype)(x))


def spectrum(dim: int, hbar_omega: float = 1.0) -> list[float]:
    """Oscillator energies ħω(n+½), n < dim, in closed form: H = a†a + ½ acts
    on |n⟩ as n + ½ (`act`), held exactly in float64 for any n below 2**52,
    so no matrix and no eigensolver is involved."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    # a finite ħω can still overflow the top energy ħω·(dim - ½)
    if not (hbar_omega > 0 and math.isfinite(hbar_omega * (dim - 0.5))):
        raise ValueError(
            f"ħω must be positive and the top energy ħω·(dim - ½) finite; "
            f"got ħω={hbar_omega:g}, dim={dim}"
        )
    return [float(hbar_omega) * (n + 0.5) for n in range(dim)]


def parity_matrix(dim: int) -> FockOperator:
    """The reflection (a, a†) → (-a, -a†): diag((-1)^n) on number states.

    Not a ladder polynomial, so it is represented only here.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    signs = np.where(np.arange(dim) % 2, -1.0, 1.0)
    return FockOperator(dim=dim, bands={0: signs})


def act(x, n: int) -> dict[int, Scalar]:
    """x|n⟩ as {d: S_d(n)}, offsets ascending, zeros dropped: S_d(n) = Σ c·(m)_k
    over the monomials c·(a†)^p a^q with p-q = d and q ≤ n, m = min(n, n+d) and
    k = min(p, q); per offset two integer sums over one denominator, reduced once."""
    if n < 0:
        raise ValueError("number-state index must be non-negative")
    den, terms = as_poly(x)._integer_terms()
    sums: dict[int, tuple[int, int]] = {}
    for p, q, cp, cq in terms:
        if q <= n:  # otherwise annihilation terminates below |0⟩
            w = math.perm(min(n, n + p - q), min(p, q))
            sp, sq = sums.get(p - q, (0, 0))
            sums[p - q] = (sp + cp * w, sq + cq * w)
    return {d: _reduced(sp, sq, den) for d, (sp, sq) in sorted(sums.items()) if sp or sq}


def ladder_amplitude(x, n: int) -> dict[int, ExactAmplitude]:
    """Exact amplitudes of x|n⟩ keyed by target index: S_d(n)·√ρ_d(n) at n+d for
    each offset d of `act`, ρ_d(n) handed over as its factors; zeros are dropped."""
    return {
        n + d: ExactAmplitude.root_sum([(s, range(min(n, n + d) + 1, max(n, n + d) + 1))])
        for d, s in act(x, n).items()
    }


def norm_condition(n: int) -> tuple[Fraction, Fraction]:
    """Exact (‖K+|n⟩‖², ‖K-|n⟩‖²) as Σ_d ρ_d(n)·S_d(n)² over the offsets of `act`,
    ρ_d(n) = (max(n, n+d))_|d|: the targets |n+d⟩ are orthonormal, S_d(n) real."""
    norms = (act(NAMED_CONSTANTS[k], n).items() for k in ("K+", "K-"))
    plus, minus = (sum((s * s * math.perm(max(n, n + d), abs(d)) for d, s in x), ZERO) for x in norms)
    return plus.as_fraction(), minus.as_fraction()


@dataclass(frozen=True)
class OrbitReport:
    seed: int
    generator_names: tuple[str, ...]
    window: int
    reachable: tuple[int, ...]
    partition: tuple[tuple[int, ...], ...]

    @property
    def orbit_count(self) -> int:
        return len(self.partition)


def orbit(seed: int, generators: Mapping, dim: int) -> OrbitReport:
    """Reachability between number states inside the trusted window, with an
    edge n → m whenever some generator (or its adjoint, i.e. the reverse
    direction) has a nonzero exact amplitude from n to m.

    Union-find hooks the larger root under the smaller, so every parent is a
    smaller state and every root its block's smallest: one ascending pass
    then points each state at its root and lists the blocks in that order.

    `generators` maps each name to a polynomial or graded element."""
    named = [(name, as_poly(g)) for name, g in generators.items()]
    if not named:
        raise ValueError("empty generator set")
    degree = max(poly.degree for _, poly in named)
    window = dim - 2 * degree
    if window < 1:
        raise ValueError(
            f"dim={dim} leaves an empty trusted window for generators of "
            f"degree {degree}; need dim ≥ {2 * degree + 1}"
        )
    if not 0 <= seed < window:
        raise ValueError(f"seed {seed} outside the trusted window [0, {window})")

    root = list(range(window))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]  # path halving
            v = root[v]
        return v

    for n in range(window):
        for _, poly in named:
            for m in ladder_amplitude(poly, n):
                if m != n and m < window:
                    a, b = find(n), find(m)
                    if a < b:
                        root[b] = a
                    elif b < a:
                        root[a] = b

    blocks: dict[int, list[int]] = {}
    for n in range(window):
        root[n] = root[root[n]]
        blocks.setdefault(root[n], []).append(n)
    return OrbitReport(
        seed=seed,
        generator_names=tuple(name for name, _ in named),
        window=window,
        reachable=tuple(blocks[root[seed]]),
        partition=tuple(map(tuple, blocks.values())),
    )


def padded_product(x: dict, y: dict, dim: int, pad: int) -> dict[int, np.ndarray]:
    """Matrix product x·y of bands padded by `pad` ≥ every |offset| of y:
    out[dx+dy][n] = Σ x[dx][n+dy]·y[dy][n], each term one slice multiply over
    all `dim` columns.  Both loops run over offsets in descending order, which
    fixes each entry's summation order and so the last bits of every residual."""
    out: dict[int, np.ndarray] = {}
    for dx in sorted(x, reverse=True):
        for dy in sorted(y, reverse=True):
            d = dx + dy
            if abs(d) < dim:
                term = x[dx][pad + dy : pad + dy + dim] * y[dy][pad : pad + dim]
                out[d] = out[d] + term if d in out else term
    return out


def relation_residuals(dim: int, tolerance: float = 1e-12, relations=None) -> VerificationReport:
    """Check each identity of `relations` (default all) on truncated matrices.

    Left sides are built from matrix products, right sides from the matrix
    of the symbolic result; the reported residual is the max absolute entry
    difference on the relation's trusted window.  Products are carried at
    extended precision so the residual measures truncation rather than entry
    round-off, which would otherwise grow with the product magnitude O(dim²)
    and swamp a 1e-12 budget near dim = 256.  The full-matrix residual is
    reported alongside: it exposes the genuine truncation artifact above the
    window.
    """
    relations = all_relations() if relations is None else relations
    max_margin = max(rel.window_margin for rel in relations)
    if dim - max_margin < 1:
        raise ValueError(
            f"dim={dim} leaves an empty trusted window for margin {max_margin}; "
            f"need dim ≥ {max_margin + 1}"
        )
    dtype = np.longdouble
    bands = _band_builder(dim, dtype)
    operands = {z for rel in relations for _, x, y, _ in rel.products for z in (x, y)}
    pad = max(z.degree for z in operands)  # ≥ every operand offset
    operand = {z: bands(z, pad) for z in operands}

    report = VerificationReport()
    for rel in relations:
        # Σ c·(x·y − σ·y·x) - rhs, band by band: each term is the product x·y
        # at weight c, then y·x at weight -σ·c; the right side comes last,
        # weight -1, built from the cached roots
        products = []
        for c, x, y, sigma in rel.products:
            products.append((c, x, y))
            if sigma:
                products.append((-sigma * c, y, x))
        diff: dict[int, np.ndarray] = {}
        for c, x, y in (*products, (-1, rel.rhs, None)):
            part = bands(x) if y is None else padded_product(operand[x], operand[y], dim, pad)
            for d, band in part.items():
                if c != 1 and c != -1:  # a weight of ±1 is an add or a subtract
                    band *= dtype(c)
                if d in diff:
                    (np.subtract if c == -1 else np.add)(diff[d], band, out=diff[d])
                else:  # an offset's first band starts its sum
                    diff[d] = np.negative(band, out=band) if c == -1 else band
        t = dim - rel.window_margin
        window_residual = full_residual = 0
        for d, band in diff.items():
            # on diagonal d the t×t window holds columns [lo, hi); columns below lo
            # are rows above the matrix, all 0, so the full max adds those past hi
            lo, hi = max(0, -d), max(min(t, t - d), 0)
            band = np.abs(band, out=band)
            window = band[lo:hi].max(initial=0)
            window_residual = max(window_residual, window)
            full_residual = max(full_residual, window, band[hi:].max(initial=0))
        detail = f"window {t}×{t} of {dim}; full-matrix residual {float(full_residual):.3e}"
        report.checks.append(numeric_check(rel.name, float(window_residual), tolerance, detail=detail))
    return report
