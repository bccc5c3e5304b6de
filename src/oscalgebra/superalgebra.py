"""Graded-basis bookkeeping: bracket closure, structure constants, Jacobi.

All linear algebra runs through one incremental echelon over the exact
coefficient field Q(√½), pivoting on each vector's largest key, so span
decisions are exact: no numeric rank thresholds anywhere.  Bracket closure
keeps one echelon across all sweeps and brackets only the pairs that involve
an element new since the previous sweep, reducing each bracket once; the
closed basis reads its spans off that same echelon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .report import VerificationReport, identity_check, symbolic_check
from .scalar import ZERO, Scalar, _reduced
from .weyl import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    NAMED_CONSTANTS,
    GradedElement,
    WeylPolynomial,
    canonical_name,
    commutator,
    graded_bracket,
    graded_sign,
    product_sum,
)

GRADED = "graded"
COMMUTATOR_ONLY = "commutator-only"


class ClosureOverflowError(RuntimeError):
    """Closure exceeded the requested dimension bound (not closed at max_dim)."""

    def __init__(self, max_dim: int, names: list[str]):
        super().__init__(
            f"bracket closure exceeds max_dim={max_dim}; "
            f"basis so far: {', '.join(names)}"
        )
        self.names = names


# -- exact linear algebra ------------------------------------------------------


class Echelon:
    """Incremental row echelon form over Q(√½) of mappings from ordered keys
    to `Scalar`s, polynomials keyed by monomial among them.

    Each row is normalised to leading coefficient 1, its lead is its largest
    key, and no two rows share one; so any nonzero element of the span leads
    with some row's key.  Each row also carries its expansion in the inserted
    vectors, so the reduction that decides membership also yields the exact
    span coefficients, which do not depend on the pivot order.
    """

    def __init__(self):
        # lead -> (terms, {insertion index: coefficient})
        self._rows = {}

    def _reduce(self, vector):
        """Subtract rows from vector, largest lead first, until it vanishes or
        leads with a key no row has.  Returns the remainder, its lead (None
        if zero) and the (factor, row) pairs used."""
        rest = dict(vector.items())
        used = []
        while rest:
            lead = max(rest)
            row = self._rows.get(lead)
            if row is None:
                return rest, lead, used
            factor = rest[lead]
            used.append((factor, row))
            fp, fq, fd = factor._p, factor._q, factor._d
            for key, c in row[0].items():
                # rest[key] - factor·c over one denominator, reduced once,
                # with factor·c = (mp + mq·√½)/md
                cp, cq, cd = c._p, c._q, c._d
                if fq and cq:
                    mp, mq, md = 2 * fp * cp + fq * cq, 2 * (fp * cq + fq * cp), 2 * fd * cd
                else:
                    mp, mq, md = fp * cp, fp * cq + fq * cp, fd * cd
                r = rest.get(key, ZERO)
                p, q = r._p * md - mp * r._d, r._q * md - mq * r._d
                if p or q:
                    rest[key] = _reduced(p, q, r._d * md)
                else:
                    del rest[key]
        return rest, None, used

    @staticmethod
    def _expansion(used, size: int) -> list[Scalar]:
        coeffs = [ZERO] * size
        for factor, (_, expansion) in used:
            for k, c in expansion.items():
                coeffs[k] = coeffs[k] + factor * c
        return coeffs

    def add(self, vector) -> bool:
        """Insert vector; False (and no change) if it already lies in the span."""
        rest, lead, used = self._reduce(vector)
        if lead is None:
            return False
        n = len(self._rows)
        inv = rest[lead].inverse()
        expansion = {k: -c * inv for k, c in enumerate(self._expansion(used, n)) if c}
        expansion[n] = inv
        self._rows[lead] = ({m: c * inv for m, c in rest.items()}, expansion)
        return True

    def coefficients(self, vector) -> list[Scalar] | None:
        """Expansion of vector in the inserted vectors, or None if outside."""
        rest, _, used = self._reduce(vector)
        if rest:
            return None
        return self._expansion(used, len(self._rows))


# -- bases --------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraBasis:
    """Ordered, named, exactly-independent graded elements."""

    elements: tuple[tuple[str, GradedElement], ...]
    _echelon: Echelon = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [name for name, _ in self.elements]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate basis names: {names}")
        echelon = Echelon()
        if not all(echelon.add(e.poly) for _, e in self.elements):
            raise ValueError("basis elements are linearly dependent")
        object.__setattr__(self, "_echelon", echelon)

    @classmethod
    def _of_echelon(cls, elements, echelon: Echelon) -> "AlgebraBasis":
        """The basis of `elements` over an echelon that holds exactly their
        polynomials, inserted in this order; the caller vouches for both."""
        basis = object.__new__(cls)
        object.__setattr__(basis, "elements", elements)
        object.__setattr__(basis, "_echelon", echelon)
        return basis

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.elements)

    @property
    def dim(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> tuple[str, GradedElement]:
        return self.elements[i]

    def polys(self) -> list[WeylPolynomial]:
        return [e.poly for _, e in self.elements]

    def span_coefficients(self, poly: WeylPolynomial) -> list[Scalar] | None:
        """Expansion of poly in this basis, or None if outside the span."""
        return self._echelon.coefficients(poly)

    def contains(self, poly: WeylPolynomial) -> bool:
        return self.span_coefficients(poly) is not None

    def spans_same(self, other: "AlgebraBasis") -> bool:
        return all(self.contains(p) for p in other.polys()) and all(
            other.contains(p) for p in self.polys()
        )


@dataclass(frozen=True)
class ClosureResult:
    basis: AlgebraBasis
    generations: int  # pair sweeps until a sweep added nothing
    added: tuple[str, ...]


def _bracket_in_mode(x: GradedElement, y: GradedElement, mode: str) -> GradedElement:
    if mode == GRADED:
        return graded_bracket(x, y)
    return GradedElement(commutator(x.poly, y.poly), (x.parity + y.parity) % 2)


def close_under_bracket(
    seed: Iterable[GradedElement | WeylPolynomial],
    mode: str = GRADED,
    max_dim: int = 16,
) -> ClosureResult:
    """Close a generator set under the bracket, appending whatever escapes
    the current span until every pairwise bracket lies inside it.

    In graded mode the bracket of two odd elements is the anticommutator
    (including an element with itself); commutator-only mode uses the plain
    commutator for every pair.  New elements that are scalar multiples of a
    standard generator or of the identity are stored under their canonical
    name; anything else is named G0, G1, ... in creation order.
    """
    if mode not in (GRADED, COMMUTATOR_ONLY):
        raise ValueError(f"unknown mode {mode!r}; use {GRADED!r} or {COMMUTATOR_ONLY!r}")
    elements = [GradedElement.of(x) for x in seed]
    if not elements:
        raise ValueError("empty seed")
    if max_dim < len(elements):
        raise ValueError(f"max_dim={max_dim} is below the seed size {len(elements)}")
    echelon = Echelon()
    if not all(echelon.add(e.poly) for e in elements):
        raise ValueError("seed elements are linearly dependent")

    counter = itertools.count()
    named = [(canonical_name(e.poly) or f"G{next(counter)}", e) for e in elements]

    generations = 0
    done = 0  # pairs within the first `done` elements were bracketed before
    while done < len(named):
        generations += 1
        size = len(named)
        for i in range(size):
            for j in range(max(i, done), size):
                xi, xj = named[i][1], named[j][1]
                if i == j and (mode != GRADED or graded_sign(xi.parity, xi.parity) > 0):
                    continue  # [x, x] = 0; only {x, x} can produce anything
                result = _bracket_in_mode(xi, xj, mode)
                # a multiple of a standard generator or the identity enters
                # as that element, so the echelon holds what the basis lists;
                # each such name comes at most once, as a later multiple of a
                # named element fails echelon.add
                name = canonical_name(result.poly)
                if name is not None:
                    result = NAMED_CONSTANTS[name]
                if not echelon.add(result.poly):
                    continue
                if len(named) + 1 > max_dim:
                    raise ClosureOverflowError(max_dim, [n for n, _ in named])
                named.append((name or f"G{next(counter)}", result))
        done = size
    return ClosureResult(
        basis=AlgebraBasis._of_echelon(tuple(named), echelon),
        generations=generations,
        added=tuple(name for name, _ in named[len(elements):]),
    )


# -- structure constants ---------------------------------------------------------


@dataclass(frozen=True)
class StructureConstants:
    """Tensor c[i][j][k]: coefficient of basis element k in [eᵢ, eⱼ}."""

    names: tuple[str, ...]
    parities: tuple[int, ...]
    tensor: tuple[tuple[tuple[Scalar, ...], ...], ...]

    @property
    def kinds(self) -> tuple[tuple[str, ...], ...]:
        """kinds[i][j]: which bracket [eᵢ, eⱼ} is, read off the parities."""
        return tuple(
            tuple(ANTICOMMUTATOR if graded_sign(pi, pj) < 0 else COMMUTATOR
                  for pj in self.parities)
            for pi in self.parities
        )


def structure_constants(basis: AlgebraBasis) -> StructureConstants:
    """Exact expansion coefficients of every graded bracket of basis pairs;
    only i ≤ j is bracketed, as [eⱼ, eᵢ} = -(-1)^(|eᵢ||eⱼ|)·[eᵢ, eⱼ}."""
    n = basis.dim
    parities = tuple(e.parity for _, e in basis)
    entries = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        bracket = graded_bracket(basis[i][1], basis[j][1]).poly
        coeffs = basis.span_coefficients(bracket)
        if coeffs is None:
            raise ValueError(
                f"bracket of {basis.names[i]} and {basis.names[j]} escapes "
                "the span: the basis is not closed"
            )
        entries[i, j] = tuple(coeffs)
        sign = -graded_sign(parities[i], parities[j])
        entries.setdefault((j, i), tuple(c * sign for c in coeffs))
    return StructureConstants(
        names=basis.names,
        parities=parities,
        tensor=tuple(tuple(entries[i, j] for j in range(n)) for i in range(n)),
    )


# -- graded Jacobi identity -------------------------------------------------------


def graded_jacobi_check(basis: AlgebraBasis) -> VerificationReport:
    """Evaluate (-1)^(|x||z|)·[x,[y,z}} + cyclic for every unordered triple
    (with repetition) of basis elements; each must be the zero polynomial."""
    report = VerificationReport()
    names = basis.names
    inner = {(v, w): graded_bracket(basis[v][1], basis[w][1])
             for v, w in itertools.product(range(basis.dim), repeat=2)}
    for i, j, k in itertools.combinations_with_replacement(range(basis.dim), 3):
        # each term (-1)^(|u||w|)·[u, B} with B = [v, w} is one kernel term
        # with σ = (-1)^(|u||B|): one kernel call over three terms
        terms = []
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            xu, b = basis[u][1], inner[v, w]
            terms.append((graded_sign(xu.parity, basis[w][1].parity), xu.poly, b.poly,
                          graded_sign(xu.parity, b.parity)))
        name = f"jacobi({names[i]},{names[j]},{names[k]})"
        report.checks.append(identity_check(name, product_sum(terms)))
    return report


def jacobi_from_constants(sc: StructureConstants) -> VerificationReport:
    """Same identity evaluated purely through the structure-constant tensor,
    so a corrupted tensor is caught even though the realization is exact."""
    report = VerificationReport()
    n = len(sc.names)
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        s1 = graded_sign(sc.parities[i], sc.parities[k])
        s2 = graded_sign(sc.parities[j], sc.parities[i])
        s3 = graded_sign(sc.parities[k], sc.parities[j])
        bad: list[str] = []
        for target in range(n):
            total = ZERO
            for m in range(n):
                total = (
                    total
                    + sc.tensor[j][k][m] * sc.tensor[i][m][target] * s1
                    + sc.tensor[k][i][m] * sc.tensor[j][m][target] * s2
                    + sc.tensor[i][j][m] * sc.tensor[k][m][target] * s3
                )
            if not total.is_zero:
                bad.append(f"{sc.names[target]}: {total}")
        name = f"jacobi-tensor({sc.names[i]},{sc.names[j]},{sc.names[k]})"
        report.checks.append(
            symbolic_check(name, not bad, "; ".join(bad))
        )
    return report
