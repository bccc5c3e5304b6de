"""Exact sums of rational multiples of square roots: Σ cᵢ·√kᵢ.

Ladder actions produce amplitudes like √n and ½√((n+1)(n+2)).  Keeping them
as rational coefficients attached to square-free integer radicands gives
exact values and an exact zero test (the term list is empty).  The orbit
partition reads only their targets: `fock.orbit` builds one amplitude per
edge through `ladder_amplitude` and keeps its key, one of `fock.act`'s nonzero
offsets shifted by n.  Reading the edges off `act` directly removes that
construction; it is ROADMAP item 6, which waits for item 1's child-RSS fix.

`root_sum` is the one normaliser: it splits each positive factor with
`square_free` and merges a running square-free radicand without factoring
again, since for square-free k1, k2 and g = gcd(k1, k2) the factors of
√k1·√k2 = g·√((k1/g)(k2/g)) are coprime and square-free.  The public
constructor `ExactAmplitude(terms)` hands it each c·√k as a one-factor part.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable

from .scalar import Scalar, render_radicals


def square_free(k: int) -> tuple[int, int]:
    """Split k > 0 as outer²·free with free square-free; returns (outer, free)."""
    if k <= 0:
        raise ValueError("radicand must be positive")
    outer, free = 1, 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            e = 0
            while k % d == 0:
                k //= d
                e += 1
            outer *= d ** (e // 2)
            if e % 2:
                free *= d
        d += 1 if d == 2 else 2
    return outer, free * k


class ExactAmplitude:
    """Immutable value Σ cᵢ·√kᵢ with distinct square-free radicands kᵢ."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Fraction | int, int]] = ()):
        parts = ((Scalar(coeff), (operator.index(radicand),)) for coeff, radicand in terms)
        object.__setattr__(self, "_terms", ExactAmplitude.root_sum(parts)._terms)

    def __setattr__(self, name, value):
        raise AttributeError("ExactAmplitude is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactAmplitude":
        return cls()

    @classmethod
    def _reduced(cls, data: dict[int, Fraction]) -> "ExactAmplitude":
        """Wrap {square-free radicand: coefficient} as it is; zeros are dropped."""
        amp = object.__new__(cls)
        object.__setattr__(amp, "_terms", tuple(sorted((k, c) for k, c in data.items() if c)))
        return amp

    @classmethod
    def root_sum(cls, parts: Iterable[tuple[Scalar, Iterable[int]]]) -> "ExactAmplitude":
        """Σ sᵢ·√(Π factorsᵢ) for scalars sᵢ = a + b·√½ and positive
        integer factors, accumulated in reduced form and wrapped once."""
        data: dict[int, Fraction] = {}
        for s, factors in parts:
            outer, free = 1, 1  # Π factors = outer²·free, free square-free
            for f in factors:
                o, k = square_free(f)
                g = math.gcd(free, k)
                outer *= o * g
                free = (free // g) * (k // g)
            p, q, d = s._p, s._q, s._d  # s = (p + q·√½)/d
            if p:
                data[free] = data.get(free, 0) + Fraction(p * outer, d)
            if q:
                # √½·√free = √(2·free)/2, and 2·free/g² is square-free for g = gcd(2, free);
                # fused, not read from Scalar.radicals(): that made orbit at dim 3000 ~30 % slower
                g = 2 - free % 2
                root = 2 * free // (g * g)
                data[root] = data.get(root, 0) + Fraction(q * outer * g, 2 * d)
        return cls._reduced(data)

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactAmplitude):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __float__(self) -> float:
        return sum((float(c) * math.sqrt(k) for k, c in self._terms), 0.0)

    def __str__(self) -> str:
        return render_radicals(self._terms)

    def __repr__(self) -> str:
        return f"<ExactAmplitude {self}>"
