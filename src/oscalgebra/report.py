"""Machine-readable outcomes of relation, Jacobi and residual checks.

Symbolic checks carry an exact-zero marker instead of a floating residual;
informational entries never affect the pass/fail verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

EXACT_ZERO = "0 (exact)"

MODE_SYMBOLIC = "symbolic"
MODE_NUMERIC = "numeric"

PASS = "pass"
FAIL = "fail"
INFORMATIONAL = "informational"


@dataclass(frozen=True)
class Check:
    name: str
    mode: str
    status: str
    residual: float | None = None  # None on a passing symbolic check: exact zero
    detail: str = ""

    @property
    def exact(self) -> bool:
        return self.mode == MODE_SYMBOLIC and self.status == PASS

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "status": self.status,
            "residual": EXACT_ZERO if self.exact else self.residual,
            "detail": self.detail,
        }


def symbolic_check(name: str, ok: bool, detail: str = "") -> Check:
    return Check(
        name=name,
        mode=MODE_SYMBOLIC,
        status=PASS if ok else FAIL,
        residual=None,
        detail=detail,
    )


def numeric_check(name: str, residual: float, tolerance: float, detail: str = "") -> Check:
    return Check(
        name=name,
        mode=MODE_NUMERIC,
        status=PASS if residual <= tolerance else FAIL,
        residual=residual,
        detail=detail,
    )


def informational(name: str, detail: str) -> Check:
    return Check(name=name, mode=MODE_SYMBOLIC, status=INFORMATIONAL, detail=detail)


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    casimir_eigenvalue: Fraction | None = None

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def counts(self) -> tuple[int, int, int]:
        n_pass = sum(1 for c in self.checks if c.status == PASS)
        n_fail = sum(1 for c in self.checks if c.status == FAIL)
        n_info = sum(1 for c in self.checks if c.status == INFORMATIONAL)
        return n_pass, n_fail, n_info

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    def as_dict(self) -> dict:
        return {
            "checks": [c.as_dict() for c in self.checks],
            "casimir": None
            if self.casimir_eigenvalue is None
            else str(self.casimir_eigenvalue),
        }
