"""Normal-ordered polynomials in the oscillator ladder operators.

The algebra has two generators, the annihilation operator a and the creation
operator a†, subject to the single rewrite rule a·a† = a†·a + 1.  Exhaustive
rewriting puts every word into normal order (all a† to the left), so an
element has a unique canonical form

    x = Σ  c[p,q] · (a†)^p a^q,      c[p,q] ∈ Q(√½) \\ {0}.

Products are computed with the closed-form contraction sum the rewrite rule
induces,

    a^q (a†)^p = Σ_k  k! C(q,k) C(p,k) (a†)^(p-k) a^(q-k),

which is what "apply the rule until nothing is left to rewrite" converges to
regardless of rewrite order (the test suite checks this against a randomly
scheduled rewriter).  One integer kernel, `product_sum`, evaluates every
product: x·y, both brackets, the Casimir and relation sums and the graded
Jacobi sum are each one call over (c, x, y, σ) terms c·(x·y − σ·y·x).  Both
orders of a term pair land on the same monomials, so each pair is visited
once with the difference of their weights: a commutator (σ = 1) never forms
the k = 0 terms that cancel.  The kernel brings all terms to one common
denominator D, accumulates each monomial's coefficient as two integers P, Q
for (P + Q·√½)/D, and reduces each surviving term once.

Coefficients enter only through `Scalar`'s constructor and exponents through
`operator.index`: numpy integers become ints, and floats raise `TypeError`.

The mod-2 ladder degree grades the algebra: the bracket of two odd elements
is an anticommutator, every other bracket is a commutator.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .scalar import ROOT_HALF, ZERO, Scalar, _reduced, render_sum

EVEN = 0
ODD = 1

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _sup(k: int) -> str:
    return "" if k == 1 else str(k).translate(_SUPERSCRIPTS)


class LadderMonomial(NamedTuple):
    """Normal-ordered word (a†)^p a^q; (0, 0) is the identity."""

    p: int
    q: int

    @property
    def degree(self) -> int:
        return self.p + self.q

    @property
    def parity(self) -> int:
        return (self.p + self.q) % 2

    @property
    def offset(self) -> int:
        """Fock-index shift the word induces: a† raises, a lowers."""
        return self.p - self.q

    def __str__(self) -> str:
        if self.p == 0 and self.q == 0:
            return "1"
        part = []
        if self.p:
            part.append("a†" + _sup(self.p))
        if self.q:
            part.append("a" + _sup(self.q))
        return "·".join(part)


class WeylPolynomial:
    """Finite Q(√½)-linear combination of normal-ordered ladder monomials.

    Canonical form stores no zero coefficients, so equality is term-map
    equality.  Instances are immutable; every operation returns a new value.
    """

    __slots__ = ("_terms", "_hash", "_integers")

    def __init__(self, terms: Mapping | Iterable | None = None):
        data: dict[LadderMonomial, Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for key, coeff in items:
            mono = LadderMonomial._make(map(operator.index, key))
            if mono.p < 0 or mono.q < 0:
                raise ValueError(f"negative exponent in monomial {key}")
            c = coeff if isinstance(coeff, Scalar) else Scalar(coeff)
            if mono in data:
                c = data[mono] + c
            if c:
                data[mono] = c
            else:
                data.pop(mono, None)
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _wrap(cls, terms: dict) -> "WeylPolynomial":
        """Hold `terms` as is; the caller vouches for canonical form."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_hash", None)
        return poly

    def _integer_terms(self) -> tuple[int, list[tuple[int, int, int, int]]]:
        """(D, [(p, q, P, Q)]) with self = Σ (P + Q·√½)/D·(a†)^p a^q, cached."""
        try:
            return self._integers
        except AttributeError:
            d = math.lcm(*[c._d for c in self._terms.values()])
            terms = [(m.p, m.q, c._p * (d // c._d), c._q * (d // c._d))
                     for m, c in self._terms.items()]
            object.__setattr__(self, "_integers", (d, terms))
            return self._integers

    def __setattr__(self, name, value):
        raise AttributeError("WeylPolynomial is immutable")

    # -- structure ------------------------------------------------------------

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def degree(self) -> int:
        """Max total ladder degree; 0 for the zero polynomial."""
        return max((m.degree for m in self._terms), default=0)

    def parity(self) -> int | None:
        """0 or 1 if homogeneous (zero counts as even), None if mixed."""
        parities = {m.parity for m in self._terms}
        if not parities:
            return EVEN
        if len(parities) > 1:
            return None
        return parities.pop()

    def coefficient(self, p: int, q: int) -> Scalar:
        return self._terms.get(LadderMonomial(p, q), ZERO)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return WeylPolynomial(itertools.chain(self.items(), other.items()))

    def __sub__(self, other):
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return WeylPolynomial({m: -c for m, c in self._terms.items()})

    def scaled(self, factor) -> "WeylPolynomial":
        f = factor if isinstance(factor, Scalar) else Scalar(factor)
        return WeylPolynomial({m: c * f for m, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return product_sum(((1, self, other, 0),))

    def adjoint(self) -> "WeylPolynomial":
        """Formal dagger: (a†)^p a^q ↦ (a†)^q a^p, coefficients unchanged.

        Coefficients are real, and the flipped word is again normal ordered,
        so the dagger acts term by term.
        """
        return WeylPolynomial(
            {LadderMonomial(m.q, m.p): c for m, c in self._terms.items()}
        )

    # -- value semantics ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WeylPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            frozen = tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))
            object.__setattr__(self, "_hash", hash(frozen))
        return self._hash

    def __str__(self) -> str:
        terms = sorted(self._terms.items(), key=lambda kv: (kv[0].degree, kv[0].p))
        return render_sum((str(c), "" if m == (0, 0) else str(m)) for m, c in terms)

    def __repr__(self) -> str:
        return f"<WeylPolynomial {self}>"


def monomial(p: int, q: int, coeff=1) -> WeylPolynomial:
    return WeylPolynomial({LadderMonomial(p, q): coeff})


IDENTITY = monomial(0, 0)
A = monomial(0, 1)
ADAG = monomial(1, 0)


# bracket kinds, as the structure-constant report names them
COMMUTATOR = "commutator"
ANTICOMMUTATOR = "anticommutator"


def commutator(x: WeylPolynomial, y: WeylPolynomial) -> WeylPolynomial:
    return product_sum(((1, x, y, 1),))


def anticommutator(x: WeylPolynomial, y: WeylPolynomial) -> WeylPolynomial:
    return product_sum(((1, x, y, -1),))


def graded_sign(px: int, py: int) -> int:
    """(-1)^(|x||y|): -1 when both entries are odd, 1 otherwise.

    The one place the grading rule is written: it picks the bracket kind
    [x, y} = xy - (-1)^(|x||y|) yx, its reversal sign and the Jacobi signs.
    """
    return -1 if px == ODD and py == ODD else 1


def product_sum(terms) -> WeylPolynomial:
    """Σ c·(x·y − σ·y·x) over (c, x, y, σ) terms, c an int or a Fraction and
    σ ∈ {-1, 0, 1}: the one product kernel.  Contracting k of the q
    annihilators of (a†)^p a^q with the r creators of (a†)^r a^s gives the
    integer weight w_k(q,r) = k!·C(q,k)·C(r,k) on (a†)^(p+r-k) a^(q+s-k), and
    contracting k of the order y·x lands on the same monomial with w_k(s,p);
    so each term pair is visited once with weight w_k(q,r) − σ·w_k(s,p).  A
    commutator starts at k = 1, as its k = 0 weights cancel.  Over one common
    denominator D each monomial sums two integers P, Q for (P + Q·√½)/D, in
    the order of its first contraction, and is reduced once."""
    operands = []
    for c, x, y, sigma in terms:
        (dx, xs), (dy, ys) = x._integer_terms(), y._integer_terms()
        # (xp + xq·s)(yp + yq·s) = (2·xp·yp + xq·yq + 2(xp·yq + xq·yp)·s) / 2
        operands.append((c.numerator, 2 * dx * dy * c.denominator, xs, ys, sigma))
    d = math.lcm(*[den for _, den, _, _, _ in operands])
    acc: dict[tuple[int, int], list[int]] = {}
    for num, den, xs, ys, sigma in operands:
        f = num * (d // den)
        for p, q, xp, xq in xs:
            for r, s, yp, yq in ys:
                # w = w_k(q,r) and v = σ·w_k(s,p), from k = 0, or from k = 1
                # for a commutator, whose k = 0 weights cancel
                if sigma == 1:
                    w, v, low = q * r, s * p, 1
                    if not (w or v):
                        continue  # neither order contracts: the terms cancel
                else:
                    w, v, low = 1, sigma, 0
                top = max(min(q, r), min(s, p)) if sigma else min(q, r)
                cp, cq = (2 * xp * yp + xq * yq) * f, 2 * (xp * yq + xq * yp) * f
                for k in range(low, top + 1):
                    weight = w - v
                    if weight:
                        key = (p + r - k, q + s - k)
                        entry = acc.get(key)
                        if entry is None:
                            acc[key] = [weight * cp, weight * cq]
                        else:
                            entry[0] += weight * cp
                            entry[1] += weight * cq
                    w = w * (q - k) * (r - k) // (k + 1)  # w_(k+1) from w_k
                    v = v * (s - k) * (p - k) // (k + 1)
    return WeylPolynomial._wrap({
        LadderMonomial._make(key): _reduced(p_num, q_num, d)
        for key, (p_num, q_num) in acc.items() if p_num or q_num
    })


@dataclass(frozen=True, slots=True)
class GradedElement:
    """A parity-homogeneous polynomial: the unit of superalgebra bookkeeping.
    Every construction validates the parity, a bracket's result included."""

    poly: WeylPolynomial
    parity: int

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ValueError(f"parity must be {EVEN} or {ODD}, got {self.parity}")
        bad = [m for m, _ in self.poly.items() if m.parity != self.parity]
        if bad:
            raise ValueError(
                f"mixed-parity polynomial: declared {self.parity}, "
                f"offending monomials {bad}"
            )

    @classmethod
    def of(cls, x) -> "GradedElement":
        """Wrap a polynomial, inferring its parity (mixed parity is an
        error); an element is returned as it is."""
        if isinstance(x, GradedElement):
            return x
        parity = x.parity()
        if parity is None:
            raise ValueError(f"polynomial is not parity-homogeneous: {x}")
        return cls(x, parity)


def graded_bracket(x: GradedElement, y: GradedElement) -> GradedElement:
    """[x, y} = xy - (-1)^(|x||y|) yx: anticommutator for two odd entries,
    commutator otherwise, of parity |x| + |y| mod 2."""
    bracket = anticommutator if graded_sign(x.parity, y.parity) < 0 else commutator
    return GradedElement(bracket(x.poly, y.poly), (x.parity + y.parity) % 2)


def as_poly(x) -> WeylPolynomial:
    """Accept either a bare polynomial or a graded wrapper."""
    return x.poly if isinstance(x, GradedElement) else x


# The five ladder bilinears/linears that close under the graded bracket, plus
# the identity, keyed by canonical name; built once and read-only, so every
# reader shares the same elements.  K+ = ½a†a†, K- = ½aa, K3 = ½a†a + ¼ (the
# rescaled Hamiltonian), and the odd doublet Q = √½·a, Q† = √½·a†.
NAMED_CONSTANTS = MappingProxyType({
    "K+": GradedElement(monomial(2, 0, Fraction(1, 2)), EVEN),
    "K-": GradedElement(monomial(0, 2, Fraction(1, 2)), EVEN),
    "K3": GradedElement(WeylPolynomial({(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 4)}), EVEN),
    "Q": GradedElement(monomial(0, 1, ROOT_HALF), ODD),
    "Q†": GradedElement(monomial(1, 0, ROOT_HALF), ODD),
    "1": GradedElement(IDENTITY, EVEN),
})


def standard_generators() -> dict[str, GradedElement]:
    """The five generators of NAMED_CONSTANTS, without the identity, in a fresh dict."""
    return {name: g for name, g in NAMED_CONSTANTS.items() if name != "1"}


def hamiltonian() -> WeylPolynomial:
    """H = a†a + ½ in units with ħω = 1, i.e. H = 2·K3."""
    return NAMED_CONSTANTS["K3"].poly.scaled(2)


# K² = ½(K+K- + K-K+) - K3² as (coefficient, left, right, 0) plain-product
# terms; the symbolic and the Fock-space suites both sum them in this order
CASIMIR_PRODUCTS = tuple(
    (c, NAMED_CONSTANTS[x].poly, NAMED_CONSTANTS[y].poly, 0)
    for c, x, y in (
        (Fraction(1, 2), "K+", "K-"), (Fraction(1, 2), "K-", "K+"), (-1, "K3", "K3")
    )
)


def casimir() -> WeylPolynomial:
    """K² = ½(K+K- + K-K+) - K3²; collapses to the constant (3/16)·1."""
    return product_sum(CASIMIR_PRODUCTS)


def canonical_name(poly: WeylPolynomial) -> str | None:
    """Name for any scalar multiple of a standard generator or the identity."""
    if poly.is_zero:
        return None
    for name, gen in NAMED_CONSTANTS.items():
        ref = gen.poly
        if poly._terms.keys() != ref._terms.keys():
            continue
        mono = next(iter(ref._terms))
        ratio = poly.coefficient(*mono) / ref.coefficient(*mono)
        if poly == ref.scaled(ratio):
            return name
    return None
