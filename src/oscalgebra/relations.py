"""The sixteen defining identities of the oscillator ladder superalgebra.

One table feeds two independent verification routes: the symbolic suite
checks each identity as an exact polynomial equality, and the Fock-space
suite re-checks it with truncated matrix products.  Bracket convention:
{x,y} when both entries are odd, [x,y] otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .weyl import (
    A,
    ADAG,
    IDENTITY,
    WeylPolynomial,
    anticommutator,
    casimir,
    commutator,
    standard_generators,
)

CASIMIR_NAME = "K² = 3/16"


@dataclass(frozen=True)
class Relation:
    """One bracket identity lhs_kind(x, y) = rhs."""

    name: str
    kind: str  # "commutator" | "anticommutator" | "casimir"
    operands: tuple[WeylPolynomial, ...]
    rhs: WeylPolynomial

    def lhs(self) -> WeylPolynomial:
        if self.kind == "commutator":
            x, y = self.operands
            return commutator(x, y)
        if self.kind == "anticommutator":
            x, y = self.operands
            return anticommutator(x, y)
        return casimir()

    def residual_poly(self) -> WeylPolynomial:
        return self.lhs() - self.rhs

    @property
    def window_margin(self) -> int:
        """Truncation margin for matrix checks: twice the largest degree
        entering a product (the two-stage Casimir products count double)."""
        d = max(op.degree for op in self.operands)
        if self.kind == "casimir":
            return 4 * d
        return 2 * d


def all_relations() -> list[Relation]:
    g = standard_generators()
    kp, km, k3 = g["K+"].poly, g["K-"].poly, g["K3"].poly
    q, qd = g["Q"].poly, g["Q†"].poly
    half = Fraction(1, 2)

    def comm(name, x, y, rhs):
        return Relation(name, "commutator", (x, y), rhs)

    def anti(name, x, y, rhs):
        return Relation(name, "anticommutator", (x, y), rhs)

    return [
        # even subalgebra
        comm("[K3,K+] = K+", k3, kp, kp),
        comm("[K3,K-] = -K-", k3, km, -km),
        comm("[K+,K-] = -2·K3", kp, km, k3.scaled(-2)),
        # the bilinears as anticommutators of the bare ladder operators
        anti("{a,a†} = 4·K3", A, ADAG, k3.scaled(4)),
        anti("{a†,a†} = 4·K+", ADAG, ADAG, kp.scaled(4)),
        anti("{a,a} = 4·K-", A, A, km.scaled(4)),
        # the odd doublet is spin-½ under K3
        comm("[K3,Q†] = ½·Q†", k3, qd, qd.scaled(half)),
        comm("[K3,Q] = -½·Q", k3, q, q.scaled(-half)),
        # K± rotate the doublet
        comm("[K+,Q†] = 0", kp, qd, WeylPolynomial()),
        comm("[K+,Q] = -Q†", kp, q, -qd),
        comm("[K-,Q†] = Q", km, qd, q),
        comm("[K-,Q] = 0", km, q, WeylPolynomial()),
        # odd-odd anticommutators close back on the even part
        anti("{Q,Q†} = 2·K3", q, qd, k3.scaled(2)),
        anti("{Q†,Q†} = 2·K+", qd, qd, kp.scaled(2)),
        anti("{Q,Q} = 2·K-", q, q, km.scaled(2)),
        # the quadratic invariant is a constant
        Relation(
            CASIMIR_NAME,
            "casimir",
            (kp, km, k3),
            IDENTITY.scaled(Fraction(3, 16)),
        ),
    ]


def casimir_commutation_checks() -> list[tuple[str, WeylPolynomial]]:
    """K² commutes with each even generator; residual polynomials (all zero)."""
    g = standard_generators()
    k2 = casimir()
    return [
        (f"[K²,{name}] = 0", commutator(k2, g[name].poly))
        for name in ("K+", "K-", "K3")
    ]
