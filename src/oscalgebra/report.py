"""Machine-readable outcomes of relation, Jacobi and residual checks.

Each verdict row comes from one of four builders:
- `identity_check`: an exact identity; passes iff its residual polynomial
  is zero, and a failing row's detail is `residual <poly>`;
- `symbolic_check`: any other exact test; verdict and detail from the caller;
- `numeric_check`: a float residual; passes iff it is at most the tolerance;
- `informational`: a note; never affects the verdict.
`Check.as_dict` alone decides the residual marker of JSON and text output:
`0 (exact)` on a passing symbolic row, else the float residual or None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    residual: float | None = None  # None on every symbolic and informational row
    detail: str = ""

    def as_dict(self) -> dict:
        exact = self.mode == MODE_SYMBOLIC and self.status == PASS
        return {
            "name": self.name,
            "mode": self.mode,
            "status": self.status,
            "residual": EXACT_ZERO if exact else self.residual,
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


def identity_check(name: str, residual) -> Check:
    """Passes iff the residual polynomial (anything with `.is_zero`) is zero."""
    ok = residual.is_zero
    return symbolic_check(name, ok, "" if ok else f"residual {residual}")


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

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def as_dict(self) -> dict:
        return {"checks": [c.as_dict() for c in self.checks]}
