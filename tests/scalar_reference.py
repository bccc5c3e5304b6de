"""The Fraction-pair Scalar that the integer (p, q, d) form replaced.

It holds a + b·√½ as two `Fraction`s and does every operation in `Fraction`
arithmetic, as the library did before.  Tests compare the library's Scalar
against it value by value; it is a reference only and is not optimised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from oscalgebra.scalar import render_radicals


def _fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class FractionScalar:
    """Element a + b*s of Q(s), s = sqrt(1/2), with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _fraction(a))
        object.__setattr__(self, "b", _fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("FractionScalar is immutable")

    @staticmethod
    def _coerce(other) -> "FractionScalar | None":
        if isinstance(other, FractionScalar):
            return other
        if isinstance(other, Rational):
            return FractionScalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FractionScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return FractionScalar(-self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FractionScalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            return FractionScalar(self.a * other, self.b * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # (a1 + b1 s)(a2 + b2 s) with s^2 = 1/2
        return FractionScalar(
            self.a * other.a + Fraction(1, 2) * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FractionScalar":
        # (a + b s)^-1 = (a - b s) / (a^2 - b^2/2); the norm vanishes only at 0
        norm = self.a * self.a - Fraction(1, 2) * self.b * self.b
        if not norm:
            raise ZeroDivisionError("scalar is zero")
        return FractionScalar(self.a / norm, -self.b / norm)

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

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a or self.b)

    def radicals(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((k, c) for k, c in ((1, self.a), (2, self.b / 2)) if c)

    def __float__(self) -> float:
        return sum((float(c) * math.sqrt(k) for k, c in self.radicals()), 0.0)

    def __str__(self) -> str:
        return render_radicals(self.radicals())

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r})"
