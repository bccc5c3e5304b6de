"""Exact coefficient arithmetic: rationals extended by a square root of one half.

Ladder bilinears carry rational coefficients, but the odd generators absorb
a factor 1/sqrt(2).  Working over Q(s) with s^2 = 1/2 keeps every bracket,
Casimir value and structure constant exact.  Since x^2 - 1/2 is irreducible
over Q, Q(s) is a field and Gaussian elimination over it needs no numeric
rank decisions.

A value is held as three ints (p, q, d) for (p + q*s)/d, with d > 0 and
gcd(p, q, d) = 1, so arithmetic and == are integer operations and brackets
and span solves build no `Fraction`.  The parts a = p/d and b = q/d stay
public as read-only `Fraction` views for hashing, printing and callers that
read them; each read builds them from the three ints.

Exact input has one door, `Scalar(a, b)`, which mixed arithmetic and the
polynomial and amplitude constructors share: a `numbers.Rational` (numpy
integers included) enters as Python ints; anything else raises `TypeError`.
Printed sums have one renderer, `render_sum`: scalars, amplitudes,
polynomials and structure rows all print as Σ c·s through it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, as Python ints."""
    if isinstance(value, Rational):
        return int(value.numerator), int(value.denominator)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def render_sum(terms) -> str:
    """Text of Σ c·s from (coefficient text, symbol text) pairs; the symbol ""
    is the unit, and a coefficient with a space is bracketed."""
    parts = []
    for c, s in terms:
        if not s:
            parts.append(c)
        elif c == "1":
            parts.append(s)
        elif c == "-1":
            parts.append(f"-{s}")
        else:
            parts.append(f"({c})·{s}" if " " in c else f"{c}·{s}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def render_radicals(terms) -> str:
    """Text of Σ c·√k from (radicand, nonzero coefficient) pairs."""
    return render_sum((str(c), "" if k == 1 else f"√{k}") for k, c in terms)


class Scalar:
    """Element a + b*s of Q(s), s = sqrt(1/2), held as (p + q*s)/d; immutable."""

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a=0, b=0):
        (pa, da), (pb, db) = _ratio(a), _ratio(b)
        d = math.lcm(da, db)
        self._p = pa * (d // da)
        self._q = pb * (d // db)
        self._d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    # -- classification ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._p and not self._q

    def as_fraction(self) -> Fraction:
        if self._q:
            raise ValueError(f"{self} has an irrational part")
        return self.a

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Scalar | None":
        if isinstance(other, Scalar):
            return other
        try:
            return Scalar(other)
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other._p, other._q, other._d)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._p, -self._q, self._d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, -other._p, -other._q, other._d)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            return _reduced(self._p * other, self._q * other, self._d)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p1, q1, p2, q2, d = self._p, self._q, other._p, other._q, self._d * other._d
        # a rational factor scales both parts; otherwise use s^2 = 1/2
        if not q2:
            return _reduced(p1 * p2, q1 * p2, d)
        if not q1:
            return _reduced(p1 * p2, p1 * q2, d)
        return _reduced(2 * p1 * p2 + q1 * q2, 2 * (p1 * q2 + q1 * p2), 2 * d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # d / (p + q s) = 2d (p - q s) / (2p^2 - q^2); the norm vanishes only at 0
        p, q, d = self._p, self._q, self._d
        norm = 2 * p * p - q * q
        if not norm:
            raise ZeroDivisionError("scalar is zero")
        if norm < 0:
            p, q, norm = -p, -q, -norm
        return _reduced(2 * d * p, -2 * d * q, norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- comparisons and hashing --------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._d == other._d

    def __hash__(self):
        if not self._q:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self._p or self._q)

    # -- conversions ----------------------------------------------------------

    def radicals(self) -> tuple[tuple[int, Fraction], ...]:
        """Nonzero (radicand, coefficient) terms of a + b·√½ = a·√1 + (b/2)·√2."""
        p, q, d = self._p, self._q, self._d
        return tuple((k, c) for k, c in ((1, Fraction(p, d)), (2, Fraction(q, 2 * d))) if c)

    def __float__(self) -> float:
        return sum((float(c) * math.sqrt(k) for k, c in self.radicals()), 0.0)

    def __str__(self) -> str:
        return render_radicals(self.radicals())

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r})"


def _reduced(p: int, q: int, d: int) -> Scalar:
    """The Scalar (p + q*s)/d for d > 0, in lowest terms."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = object.__new__(Scalar)
    x._p, x._q, x._d = p, q, d
    return x


def _sum(x: Scalar, p: int, q: int, d: int) -> Scalar:
    """x + (p + q*s)/d, with a shortcut for a shared denominator."""
    if x._d == d:
        return _reduced(x._p + p, x._q + q, d)
    return _reduced(x._p * d + p * x._d, x._q * d + q * x._d, x._d * d)


ZERO = Scalar(0)
ROOT_HALF = Scalar(0, 1)
