"""Command-line front end: verification suites, closure, orbits, spectra.

Subcommands
    verify     symbolic relations + graded Jacobi + Casimir + matrix residuals
    closure    bracket-close a seed set and show what got forced in
    orbit      reachability between number states under a generator set
    structure  the graded structure-constant table of the five generators
    spectrum   per-level table: energy, K3 eigenvalue, parity, norms

Reports are deterministic: the same configuration yields byte-identical
output, and JSON output parses back into the report model.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__
from .fock import ladder_amplitude, norm_condition, orbit, relation_residuals, spectrum
from .relations import all_relations, casimir_commutation_checks
from .report import (
    FAIL,
    INFORMATIONAL,
    PASS,
    VerificationReport,
    informational,
    symbolic_check,
)
from .scalar import Scalar
from .superalgebra import (
    AlgebraBasis,
    ClosureOverflowError,
    close_under_bracket,
    graded_jacobi_check,
    structure_constants,
)
from .weyl import GradedElement, casimir, named_constants

REPORT_VERSION = 1
# Largest accepted --dim: banded storage keeps memory O(dim), and 10⁶ is the
# largest truncation the numeric suite is meant to reach.
DIM_LIMIT = 1_000_000

GENERATOR_SETS = {
    "so21": ("K+", "K-", "K3"),
    "osp": ("K+", "K-", "K3", "Q", "Q†"),
    "minimal": ("K3", "Q", "Q†"),
    "heisenberg": ("Q", "Q†", "1"),
}

_NAME_ALIASES = {
    "k+": "K+", "kp": "K+", "k_plus": "K+", "k₊": "K+",
    "k-": "K-", "km": "K-", "k_minus": "K-", "k₋": "K-",
    "k3": "K3", "k₃": "K3",
    "q": "Q",
    "q†": "Q†", "qd": "Q†", "qdag": "Q†", "qdagger": "Q†",
    "1": "1", "i": "1", "id": "1", "one": "1", "𝟙": "1",
}


@dataclass
class RunConfig:
    dim: int = 64
    hbar_omega: float = 1.0
    tolerance: float = 1e-12
    output_format: str = "text"
    seed_state: int = 0
    generator_set: str = "osp"
    max_dim: int = 16
    mode: str = "graded"


def resolve_generator_names(selector: str) -> list[str]:
    """Expand a predefined set name or a comma-separated inline list."""
    if selector in GENERATOR_SETS:
        return list(GENERATOR_SETS[selector])
    names = []
    for token in selector.split(","):
        token = token.strip()
        resolved = _NAME_ALIASES.get(token.lower())
        if resolved is None:
            raise ValueError(
                f"unknown generator {token!r}; predefined sets: "
                f"{', '.join(GENERATOR_SETS)}; names: K+, K-, K3, Q, Q†, 1"
            )
        names.append(resolved)
    if not names:
        raise ValueError("empty generator set")
    return names


def resolve_generators(selector: str) -> dict[str, GradedElement]:
    table = named_constants()
    return {name: table[name] for name in resolve_generator_names(selector)}


# -- verify -----------------------------------------------------------------


def build_verify_report(config: RunConfig) -> VerificationReport:
    """Full suite: exact relations, Casimir, Jacobi, truncated-matrix
    residuals, plus informational convention comparisons."""
    report = VerificationReport()

    for rel in all_relations():
        residual = rel.residual_poly()
        report.checks.append(
            symbolic_check(
                rel.name,
                residual.is_zero,
                "" if residual.is_zero else f"residual {residual}",
            )
        )

    kappa = casimir().constant_term()
    for name, residual in casimir_commutation_checks():
        report.checks.append(symbolic_check(name, residual.is_zero))
    if kappa.is_rational:
        report.casimir_eigenvalue = kappa.as_fraction()

    gens = named_constants()
    osp_basis = AlgebraBasis(
        tuple((n, gens[n]) for n in GENERATOR_SETS["osp"])
    )
    report.extend(graded_jacobi_check(osp_basis))

    report.extend(relation_residuals(config.dim, config.tolerance))

    amp = ladder_amplitude(gens["K+"], 0)[2]
    report.checks.append(
        informational(
            "raising amplitude convention",
            f"K+|0⟩ = ({amp})·|2⟩ exactly; the unhalved double-raising form "
            f"√((n+1)(n+2)) would give √2 at n=0 — K+ = ½a†a† carries the ½",
        )
    )
    exact_pair = norm_condition(1)
    literal_pair = (Fraction(3, 16) + 1 * 2, Fraction(3, 16) + 1 * 0)
    report.checks.append(
        informational(
            "norm-condition index convention",
            f"‖K±|n⟩‖² = 3/16 + m(m±1) holds with the K3 eigenvalue "
            f"m = (2n+1)/4, not the state label n: at n=1 the exact pair is "
            f"({exact_pair[0]}, {exact_pair[1]}) while substituting n gives "
            f"({literal_pair[0]}, {literal_pair[1]})",
        )
    )
    return report


def _render_checks_text(report: VerificationReport, lines: list[str]) -> None:
    mark = {PASS: "PASS", FAIL: "FAIL", INFORMATIONAL: "INFO"}
    for check in report.checks:
        if check.exact:
            res = "0 (exact)"
        elif check.residual is not None:
            res = f"{check.residual:.3e}"
        else:
            res = "-"
        line = f"[{mark[check.status]}] {check.name:<24} {res:>10}"
        if check.detail:
            line += f"  {check.detail}"
        lines.append(line)


def cmd_verify(config: RunConfig) -> int:
    try:
        report = build_verify_report(config)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if config.output_format == "json":
        envelope = {
            "version": REPORT_VERSION,
            "config": asdict(config),
            **report.as_dict(),
        }
        print(json.dumps(envelope, indent=2))
    else:
        lines = [
            f"ladder-algebra verification  dim={config.dim}  tol={config.tolerance:g}",
            "",
        ]
        _render_checks_text(report, lines)
        n_pass, n_fail, n_info = report.counts()
        lines.append("")
        lines.append(f"casimir eigenvalue: {report.casimir_eigenvalue}")
        lines.append(f"summary: {n_pass} passed, {n_fail} failed, {n_info} informational")
        print("\n".join(lines))
    return 0 if report.passed else 1


# -- closure ------------------------------------------------------------------


def cmd_closure(config: RunConfig) -> int:
    try:
        gens = resolve_generators(config.generator_set)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        result = close_under_bracket(
            gens.values(), mode=config.mode, max_dim=config.max_dim
        )
    except ClosureOverflowError as err:
        print(f"not closed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if config.output_format == "json":
        envelope = {
            "version": REPORT_VERSION,
            "config": asdict(config),
            "closure": {
                "seed": list(gens),
                "mode": config.mode,
                "dimension": result.basis.dim,
                "generations": result.generations,
                "added": list(result.added),
                "basis": [
                    {
                        "name": name,
                        "parity": "even" if elem.parity == 0 else "odd",
                        "polynomial": str(elem.poly),
                    }
                    for name, elem in result.basis
                ],
            },
        }
        print(json.dumps(envelope, indent=2))
    else:
        seed_names = ", ".join(gens)
        lines = [
            f"bracket closure of {{{seed_names}}}  mode={config.mode}  max_dim={config.max_dim}",
            f"dimension: {result.basis.dim}   sweeps: {result.generations}",
            "added by closure: " + (", ".join(result.added) if result.added else "nothing"),
            "basis:",
        ]
        for name, elem in result.basis:
            tag = "even" if elem.parity == 0 else "odd"
            lines.append(f"  {name:<4} {tag:<5} {elem.poly}")
        print("\n".join(lines))
    return 0


# -- orbit ---------------------------------------------------------------------


def _block_label(block: tuple[int, ...]) -> str:
    if all(i % 2 == 0 for i in block):
        return "even indices"
    if all(i % 2 == 1 for i in block):
        return "odd indices"
    return "mixed parity"


def _format_block(block: tuple[int, ...]) -> str:
    if len(block) <= 12:
        return ", ".join(map(str, block))
    head = ", ".join(map(str, block[:10]))
    return f"{head}, … ({len(block)} states)"


def cmd_orbit(config: RunConfig) -> int:
    try:
        gens = resolve_generators(config.generator_set)
        report = orbit(config.seed_state, gens, config.dim)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if config.output_format == "json":
        envelope = {
            "version": REPORT_VERSION,
            "config": asdict(config),
            "orbits": {
                "seed": report.seed,
                "generators": list(report.generator_names),
                "window": report.window,
                "reachable": list(report.reachable),
                "partition": [list(b) for b in report.partition],
            },
        }
        print(json.dumps(envelope, indent=2))
    else:
        lines = [
            f"orbit analysis  set={{{', '.join(report.generator_names)}}}"
            f"  seed={report.seed}  dim={config.dim}  window={report.window}",
            f"reachable from |{report.seed}⟩: {len(report.reachable)} states"
            f" ({_block_label(report.reachable)})",
            f"partition of the window: {report.orbit_count} orbit"
            + ("s" if report.orbit_count != 1 else ""),
        ]
        for idx, block in enumerate(report.partition, start=1):
            lines.append(
                f"  orbit {idx}: {len(block)} states ({_block_label(block)}): "
                f"{_format_block(block)}"
            )
        print("\n".join(lines))
    return 0


# -- structure constants -----------------------------------------------------------


def _combination(coeffs, names) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if c.is_zero:
            continue
        if c == Scalar(1):
            parts.append(name)
        elif c == Scalar(-1):
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}·{name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def cmd_structure(config: RunConfig) -> int:
    gens = named_constants()
    basis = AlgebraBasis(tuple((n, gens[n]) for n in GENERATOR_SETS["osp"]))
    sc = structure_constants(basis)

    if config.output_format == "json":
        tensor = {}
        for i, ni in enumerate(sc.names):
            row = {}
            for j, nj in enumerate(sc.names):
                entries = {
                    nk: str(sc.tensor[i][j][k])
                    for k, nk in enumerate(sc.names)
                    if not sc.tensor[i][j][k].is_zero
                }
                row[nj] = {"kind": sc.kinds[i][j], "coefficients": entries}
            tensor[ni] = row
        envelope = {
            "version": REPORT_VERSION,
            "config": asdict(config),
            "structure": {
                "basis": list(sc.names),
                "parities": ["even" if p == 0 else "odd" for p in sc.parities],
                "tensor": tensor,
            },
        }
        print(json.dumps(envelope, indent=2))
    else:
        lines = [f"graded structure constants of {{{', '.join(sc.names)}}}"]
        for i in range(sc.dim):
            for j in range(i, sc.dim):
                left, right = sc.names[i], sc.names[j]
                kind = sc.kinds[i][j]
                open_b, close_b = ("{", "}") if kind == "anticommutator" else ("[", "]")
                value = _combination(sc.tensor[i][j], sc.names)
                lines.append(f"  {open_b}{left},{right}{close_b} = {value}")
        lines.append(
            "  (commutator pairs: the reversed bracket is the negative;"
            " anticommutators are symmetric)"
        )
        print("\n".join(lines))
    return 0


# -- spectrum ---------------------------------------------------------------------


def _spectrum_rows(config: RunConfig) -> list[dict]:
    energies = spectrum(config.dim, config.hbar_omega)
    rows = []
    for n in range(config.dim):
        plus, minus = norm_condition(n)
        rows.append(
            {
                "n": n,
                "E": energies[n],
                "k3": str(Fraction(2 * n + 1, 4)),
                "parity": "+" if n % 2 == 0 else "-",
                "norm_plus": str(plus),
                "norm_minus": str(minus),
            }
        )
    return rows


def cmd_spectrum(config: RunConfig) -> int:
    try:
        rows = _spectrum_rows(config)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if config.output_format == "json":
        envelope = {
            "version": REPORT_VERSION,
            "config": asdict(config),
            "spectrum": rows,
        }
        print(json.dumps(envelope, indent=2))
    else:
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=["n", "E", "k3", "parity", "norm_plus", "norm_minus"]
        )
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buffer.getvalue())
    return 0


# -- entry point ---------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dim", type=int, default=64, help=f"truncation dimension, at most {DIM_LIMIT}"
    )
    parser.add_argument(
        "--hbar-omega", type=float, default=1.0, help="energy quantum ħω"
    )
    parser.add_argument(
        "--tol", type=float, default=1e-12, help="numeric residual tolerance"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument("--max-dim", type=int, default=16, help="closure size bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscalgebra",
        description="exact ladder-operator algebra of the harmonic oscillator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    _add_common(p_verify)

    p_closure = sub.add_parser("closure", help="bracket-close a generator set")
    _add_common(p_closure)
    p_closure.add_argument(
        "--set", default="minimal", help="predefined set or comma-separated names"
    )
    p_closure.add_argument(
        "--mode",
        choices=("graded", "commutator-only"),
        default="graded",
        help="bracket convention used for closure",
    )

    p_orbit = sub.add_parser("orbit", help="number-state reachability")
    _add_common(p_orbit)
    p_orbit.add_argument("--seed", type=int, default=0, help="starting number state")
    p_orbit.add_argument(
        "--set", default="osp", help="predefined set or comma-separated names"
    )

    p_structure = sub.add_parser("structure", help="graded structure-constant table")
    _add_common(p_structure)

    p_spectrum = sub.add_parser("spectrum", help="per-level spectrum table")
    _add_common(p_spectrum)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        dim=args.dim,
        hbar_omega=args.hbar_omega,
        tolerance=args.tol,
        output_format=args.format,
        seed_state=getattr(args, "seed", 0),
        generator_set=getattr(args, "set", "osp"),
        max_dim=args.max_dim,
        mode=getattr(args, "mode", "graded"),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    if not 1 <= config.dim <= DIM_LIMIT:
        print(f"error: --dim must be between 1 and {DIM_LIMIT}", file=sys.stderr)
        return 2
    if not (math.isfinite(config.hbar_omega) and config.hbar_omega > 0):
        print("error: --hbar-omega must be positive and finite", file=sys.stderr)
        return 2
    if not (math.isfinite(config.tolerance) and config.tolerance >= 0):
        print("error: --tol must be non-negative and finite", file=sys.stderr)
        return 2
    dispatch = {
        "verify": cmd_verify,
        "closure": cmd_closure,
        "orbit": cmd_orbit,
        "structure": cmd_structure,
        "spectrum": cmd_spectrum,
    }
    return dispatch[args.command](config)


if __name__ == "__main__":
    sys.exit(main())
