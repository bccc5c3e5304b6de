"""Exact coefficient arithmetic: rationals extended by a square root of one half.

Ladder bilinears carry rational coefficients, but the odd generators absorb
a factor 1/sqrt(2).  Working over Q(s) with s^2 = 1/2 keeps every bracket,
Casimir value and structure constant exact.  Since x^2 - 1/2 is irreducible
over Q, Q(s) is a field and Gaussian elimination over it needs no numeric
rank decisions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational


def _fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def render_radicals(terms) -> str:
    """Text of Σ c·√k from (radicand, nonzero coefficient) pairs."""
    parts = []
    for k, c in terms:
        if k == 1:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"√{k}")
        elif c == -1:
            parts.append(f"-√{k}")
        else:
            parts.append(f"{c}·√{k}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class Scalar:
    """Element a + b*s of Q(s), s = sqrt(1/2), with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _fraction(a))
        object.__setattr__(self, "b", _fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- classification ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_rational(self) -> bool:
        return not self.b

    def as_fraction(self) -> Fraction:
        if self.b:
            raise ValueError(f"{self} has an irrational part")
        return self.a

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Scalar | None":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, Rational):
            return Scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            return Scalar(self.a * other, self.b * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # (a1 + b1 s)(a2 + b2 s) with s^2 = 1/2
        return Scalar(
            self.a * other.a + Fraction(1, 2) * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # (a + b s)^-1 = (a - b s) / (a^2 - b^2/2); the norm vanishes only at 0
        norm = self.a * self.a - Fraction(1, 2) * self.b * self.b
        if not norm:
            raise ZeroDivisionError("scalar is zero")
        return Scalar(self.a / norm, -self.b / norm)

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
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return not self.is_zero

    # -- conversions ----------------------------------------------------------

    def radicals(self) -> tuple[tuple[int, Fraction], ...]:
        """Nonzero (radicand, coefficient) terms of a + b·√½ = a·√1 + (b/2)·√2."""
        return tuple((k, c) for k, c in ((1, self.a), (2, self.b / 2)) if c)

    def __float__(self) -> float:
        return sum((float(c) * math.sqrt(k) for k, c in self.radicals()), 0.0)

    def __str__(self) -> str:
        return render_radicals(self.radicals())

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
ROOT_HALF = Scalar(0, 1)
