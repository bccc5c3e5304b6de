"""The sixteen defining identities of the oscillator ladder superalgebra.

One table feeds two independent verification routes: the symbolic suite
checks each identity as an exact polynomial equality, and the Fock-space
suite re-checks it with truncated matrix products.  Each left side is data,
a sum of bracket terms c·(x·y − σ·y·x), which both suites evaluate the same
way.  A bracket [x,y} = xy - (-1)^(|x||y|)·yx is one term with σ the graded
sign of x and y: {x,y} when both are odd, [x,y] otherwise.  The Casimir's
three terms are plain products, σ = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .weyl import (
    A,
    ADAG,
    CASIMIR_PRODUCTS,
    IDENTITY,
    NAMED_CONSTANTS,
    WeylPolynomial,
    casimir,
    commutator,
    graded_sign,
    product_sum,
)

CASIMIR_NAME = "K² = 3/16"


@dataclass(frozen=True)
class Relation:
    """One identity Σ c·(x·y − σ·y·x) = rhs over its (c, x, y, σ) terms."""

    name: str
    products: tuple[tuple[Fraction | int, WeylPolynomial, WeylPolynomial, int], ...]
    rhs: WeylPolynomial
    window_margin: int  # matrix checks trust the leading (dim - window_margin)² block

    def lhs(self) -> WeylPolynomial:
        return product_sum(self.products)

    def residual_poly(self) -> WeylPolynomial:
        return self.lhs() - self.rhs


def _bracket(name: str, x: WeylPolynomial, y: WeylPolynomial, rhs: WeylPolynomial) -> Relation:
    """[x,y} = rhs; the margin is twice the larger operand degree."""
    sign = graded_sign(x.parity(), y.parity())
    return Relation(name, ((1, x, y, sign),), rhs, 2 * max(x.degree, y.degree))


def all_relations() -> list[Relation]:
    g = NAMED_CONSTANTS
    kp, km, k3 = g["K+"].poly, g["K-"].poly, g["K3"].poly
    q, qd = g["Q"].poly, g["Q†"].poly
    half = Fraction(1, 2)
    return [
        # even subalgebra
        _bracket("[K3,K+] = K+", k3, kp, kp),
        _bracket("[K3,K-] = -K-", k3, km, -km),
        _bracket("[K+,K-] = -2·K3", kp, km, k3.scaled(-2)),
        # the bilinears as anticommutators of the bare ladder operators
        _bracket("{a,a†} = 4·K3", A, ADAG, k3.scaled(4)),
        _bracket("{a†,a†} = 4·K+", ADAG, ADAG, kp.scaled(4)),
        _bracket("{a,a} = 4·K-", A, A, km.scaled(4)),
        # the odd doublet is spin-½ under K3
        _bracket("[K3,Q†] = ½·Q†", k3, qd, qd.scaled(half)),
        _bracket("[K3,Q] = -½·Q", k3, q, q.scaled(-half)),
        # K± rotate the doublet
        _bracket("[K+,Q†] = 0", kp, qd, WeylPolynomial()),
        _bracket("[K+,Q] = -Q†", kp, q, -qd),
        _bracket("[K-,Q†] = Q", km, qd, q),
        _bracket("[K-,Q] = 0", km, q, WeylPolynomial()),
        # odd-odd anticommutators close back on the even part
        _bracket("{Q,Q†} = 2·K3", q, qd, k3.scaled(2)),
        _bracket("{Q†,Q†} = 2·K+", qd, qd, kp.scaled(2)),
        _bracket("{Q,Q} = 2·K-", q, q, km.scaled(2)),
        # the quadratic invariant is a constant; its products stack two
        # degree-2 factors, so the margin is twice their degree 4
        Relation(CASIMIR_NAME, CASIMIR_PRODUCTS, IDENTITY.scaled(Fraction(3, 16)), 8),
    ]


def casimir_commutation_checks() -> list[tuple[str, WeylPolynomial]]:
    """K² commutes with each even generator; residual polynomials (all zero)."""
    k2 = casimir()
    return [
        (f"[K²,{name}] = 0", commutator(k2, NAMED_CONSTANTS[name].poly))
        for name in ("K+", "K-", "K3")
    ]
