"""Graded-basis bookkeeping: bracket closure, structure constants, Jacobi.

All linear algebra runs through one incremental echelon over the exact
coefficient field Q(√½), with rows keyed by leading monomial in the (total
degree, creation exponent) order, so span decisions are deterministic: no
numeric rank thresholds anywhere.  Bracket closure keeps one echelon across
all sweeps and brackets only the pairs that involve an element new since the
previous sweep, reducing each bracket once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .report import VerificationReport, identity_check, symbolic_check
from .scalar import ZERO, Scalar
from .weyl import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    NAMED_CONSTANTS,
    GradedElement,
    LadderMonomial,
    WeylPolynomial,
    _canonical_key,
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
        self.max_dim = max_dim
        self.names = names


# -- exact linear algebra ------------------------------------------------------


class Echelon:
    """Incremental row echelon form over Q(√½), keyed by leading monomial.

    Each row is normalised to leading coefficient 1, its leading monomial is
    the largest in `_canonical_key` order, and no two rows share one; so any
    nonzero element of the span leads with some row's monomial.  Each row
    also carries its expansion in the inserted polynomials, so the reduction
    that decides membership also yields the exact span coefficients.
    """

    def __init__(self):
        # lead -> (terms, {insertion index: coefficient})
        self._rows: dict[LadderMonomial, tuple[dict, dict[int, Scalar]]] = {}

    def _reduce(self, poly: WeylPolynomial):
        """Subtract rows from poly, largest leading monomial first, until it
        vanishes or leads with a monomial no row has.  Returns the remainder,
        its leading monomial (None if zero) and the (factor, row) pairs used."""
        rest = dict(poly.items())
        used = []
        while rest:
            lead = max(rest, key=_canonical_key)
            row = self._rows.get(lead)
            if row is None:
                return rest, lead, used
            factor = rest[lead]
            used.append((factor, row))
            for mono, c in row[0].items():
                s = rest.get(mono, ZERO) - factor * c
                if s:
                    rest[mono] = s
                else:
                    del rest[mono]
        return rest, None, used

    @staticmethod
    def _expansion(used, size: int) -> list[Scalar]:
        coeffs = [ZERO] * size
        for factor, (_, expansion) in used:
            for k, c in expansion.items():
                coeffs[k] = coeffs[k] + factor * c
        return coeffs

    def add(self, poly: WeylPolynomial) -> bool:
        """Insert poly; False (and no change) if it already lies in the span."""
        rest, lead, used = self._reduce(poly)
        if lead is None:
            return False
        n = len(self._rows)
        inv = rest[lead].inverse()
        expansion = {k: -c * inv for k, c in enumerate(self._expansion(used, n)) if c}
        expansion[n] = inv
        self._rows[lead] = ({m: c * inv for m, c in rest.items()}, expansion)
        return True

    def coefficients(self, poly: WeylPolynomial) -> list[Scalar] | None:
        """Expansion of poly in the inserted polynomials, or None if outside."""
        rest, _, used = self._reduce(poly)
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
    taken: set[str] = set()

    def fresh_name(poly: WeylPolynomial) -> tuple[str, GradedElement | None]:
        name = canonical_name(poly)
        if name is not None and name not in taken:
            taken.add(name)
            return name, NAMED_CONSTANTS[name]
        return f"G{next(counter)}", None

    named: list[tuple[str, GradedElement]] = []
    for elem in elements:
        name, _ = fresh_name(elem.poly)
        named.append((name, elem))

    generations = 0
    done = 0  # pairs within the first `done` elements were bracketed before
    while done < len(named):
        generations += 1
        size = len(named)
        for i, j in itertools.combinations_with_replacement(range(size), 2):
            if j < done:
                continue  # already inside the span, or added to it
            xi, xj = named[i][1], named[j][1]
            if i == j and (mode != GRADED or graded_sign(xi.parity, xi.parity) > 0):
                continue  # [x, x] = 0; only {x, x} can produce anything
            result = _bracket_in_mode(xi, xj, mode)
            if not echelon.add(result.poly):
                continue
            if len(named) + 1 > max_dim:
                raise ClosureOverflowError(max_dim, [n for n, _ in named])
            name, normalized = fresh_name(result.poly)
            named.append((name, normalized if normalized is not None else result))
        done = size
    return ClosureResult(
        basis=AlgebraBasis(tuple(named)),
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
    def dim(self) -> int:
        return len(self.names)

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
        # each term (-1)^(|u||w|)·[u, B} with B = [v, w} is the two products
        # u·B and -(-1)^(|u||B|)·B·u: one kernel call over six products
        products = []
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            xu, b = basis[u][1], inner[v, w]
            sign = graded_sign(xu.parity, basis[w][1].parity)
            products += [(sign, xu.poly, b.poly),
                         (-sign * graded_sign(xu.parity, b.parity), b.poly, xu.poly)]
        name = f"jacobi({names[i]},{names[j]},{names[k]})"
        report.checks.append(identity_check(name, product_sum(products)))
    return report


def jacobi_from_constants(sc: StructureConstants) -> VerificationReport:
    """Same identity evaluated purely through the structure-constant tensor,
    so a corrupted tensor is caught even though the realization is exact."""
    report = VerificationReport()
    n = sc.dim
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
