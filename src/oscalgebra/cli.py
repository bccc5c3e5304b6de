"""Command-line front end: verification suites, closure, orbits, spectra.

Subcommands
    verify     symbolic relations + graded Jacobi + Casimir + matrix residuals
    closure    bracket-close a seed set and show what got forced in
    orbit      reachability between number states under a generator set
    structure  the graded structure-constant table of the five generators
    spectrum   per-level table: energy, K3 eigenvalue, parity, norms

Each subcommand is a pure function ``RunConfig -> (payload, render, status)``;
``COMMANDS`` lists it with its help string and the options it reads.  Argv of
the plain form ``command (--option value)*``, whose options the command reads
and whose values convert, pass their choices and do not start with ``-``, is
read off that table; any other argv (help, ``--opt=value``, abbreviations,
usage errors) goes to the argparse parser built from it.

``main`` is the single emit point: it validates options, maps
``ClosureOverflowError`` to status 1 and ``ValueError`` to status 2, and
prints either the one JSON envelope ``{"version", "config", **payload}`` or
the text, rendered only then.

Reports are deterministic: the same configuration yields byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from . import __version__
from .fock import ladder_amplitude, norm_condition, orbit, relation_residuals, spectrum
from .relations import all_relations, casimir_commutation_checks
from .report import (
    FAIL,
    INFORMATIONAL,
    PASS,
    VerificationReport,
    identity_check,
    informational,
)
from .scalar import render_sum
from .superalgebra import (
    COMMUTATOR_ONLY,
    GRADED,
    AlgebraBasis,
    ClosureOverflowError,
    close_under_bracket,
    graded_jacobi_check,
    structure_constants,
)
from .weyl import ANTICOMMUTATOR, NAMED_CONSTANTS, GradedElement, casimir

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
    """Expand a predefined set name or a comma-separated inline list, in
    which each generator may appear once (under any of its aliases)."""
    selector = selector.strip()
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
        if resolved in names:
            raise ValueError(f"generator {resolved} repeated in --set {selector!r}")
        names.append(resolved)
    return names


def resolve_generators(selector: str) -> dict[str, GradedElement]:
    return {name: NAMED_CONSTANTS[name] for name in resolve_generator_names(selector)}


def _osp_basis() -> AlgebraBasis:
    """The five generators K+, K-, K3, Q, Q† as one graded basis."""
    return AlgebraBasis(tuple(resolve_generators("osp").items()))


_PARITY_NAMES = ("even", "odd")  # indexed by GradedElement.parity

# what every cmd_* returns: (JSON payload, text renderer, exit status); the
# renderer returns a str or a list of lines
CommandResult = tuple[dict, Callable[[], str | list[str]], int]


# -- verify -----------------------------------------------------------------


def build_verify_report(config: RunConfig) -> VerificationReport:
    """Full suite: exact relations, Casimir, Jacobi, truncated-matrix
    residuals, plus informational convention comparisons."""
    osp = _osp_basis()
    relations = all_relations()
    identities = [(rel.name, rel.residual_poly()) for rel in relations]
    amp = ladder_amplitude(dict(osp)["K+"], 0)[2]
    exact_pair = norm_condition(1)
    literal_pair = (Fraction(3, 16) + 1 * 2, Fraction(3, 16) + 1 * 0)
    return VerificationReport(
        [identity_check(name, residual)
         for name, residual in identities + casimir_commutation_checks()]
        + graded_jacobi_check(osp).checks
        + relation_residuals(config.dim, config.tolerance, relations).checks
        + [
            informational(
                "raising amplitude convention",
                f"K+|0⟩ = ({amp})·|2⟩ exactly; the unhalved double-raising form "
                f"√((n+1)(n+2)) would give √2 at n=0 — K+ = ½a†a† carries the ½",
            ),
            informational(
                "norm-condition index convention",
                f"‖K±|n⟩‖² = 3/16 + m(m±1) holds with the K3 eigenvalue "
                f"m = (2n+1)/4, not the state label n: at n=1 the exact pair is "
                f"({exact_pair[0]}, {exact_pair[1]}) while substituting n gives "
                f"({literal_pair[0]}, {literal_pair[1]})",
            ),
        ]
    )


def cmd_verify(config: RunConfig) -> CommandResult:
    report = build_verify_report(config)
    kappa = str(casimir().coefficient(0, 0))
    payload = {**report.as_dict(), "casimir": kappa}

    def text() -> list[str]:
        mark = {PASS: "PASS", FAIL: "FAIL", INFORMATIONAL: "INFO"}
        lines = [f"ladder-algebra verification  dim={config.dim}  tol={config.tolerance:g}", ""]
        for check in payload["checks"]:
            res = check["residual"]
            if not isinstance(res, str):  # the exact-zero marker is already text
                res = "-" if res is None else f"{res:.3e}"
            line = f"[{mark[check['status']]}] {check['name']:<24} {res:>10}"
            lines.append(f"{line}  {check['detail']}" if check["detail"] else line)
        statuses = [c.status for c in report.checks]
        return lines + [
            "",
            f"casimir eigenvalue: {kappa}",
            f"summary: {statuses.count(PASS)} passed, {statuses.count(FAIL)} failed,"
            f" {statuses.count(INFORMATIONAL)} informational",
        ]

    return payload, text, 0 if report.passed else 1


# -- closure ------------------------------------------------------------------


def cmd_closure(config: RunConfig) -> CommandResult:
    gens = resolve_generators(config.generator_set)
    result = close_under_bracket(gens.values(), mode=config.mode, max_dim=config.max_dim)
    basis = [
        {"name": name, "parity": _PARITY_NAMES[elem.parity], "polynomial": str(elem.poly)}
        for name, elem in result.basis
    ]
    payload = {
        "seed": list(gens),
        "mode": config.mode,
        "dimension": result.basis.dim,
        "generations": result.generations,
        "added": list(result.added),
        "basis": basis,
    }
    return {"closure": payload}, lambda: [
        f"bracket closure of {{{', '.join(gens)}}}  mode={config.mode}  max_dim={config.max_dim}",
        f"dimension: {result.basis.dim}   sweeps: {result.generations}",
        "added by closure: " + (", ".join(result.added) or "nothing"),
        "basis:",
        *(f"  {b['name']:<4} {b['parity']:<5} {b['polynomial']}" for b in basis),
    ], 0


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


def cmd_orbit(config: RunConfig) -> CommandResult:
    gens = resolve_generators(config.generator_set)
    report = orbit(config.seed_state, gens, config.dim)
    payload = {
        "seed": report.seed,
        "generators": list(report.generator_names),
        "window": report.window,
        "reachable": list(report.reachable),
        "partition": [list(b) for b in report.partition],
    }
    return {"orbits": payload}, lambda: [
        f"orbit analysis  set={{{', '.join(report.generator_names)}}}"
        f"  seed={report.seed}  dim={config.dim}  window={report.window}",
        f"reachable from |{report.seed}⟩: {len(report.reachable)} states"
        f" ({_block_label(report.reachable)})",
        f"partition of the window: {report.orbit_count} orbit"
        + ("s" if report.orbit_count != 1 else ""),
        *(
            f"  orbit {idx}: {len(block)} states ({_block_label(block)}): {_format_block(block)}"
            for idx, block in enumerate(report.partition, start=1)
        ),
    ], 0


# -- structure constants -----------------------------------------------------------


def cmd_structure(config: RunConfig) -> CommandResult:
    sc = structure_constants(_osp_basis())
    kinds = sc.kinds
    tensor = {}
    for i, ni in enumerate(sc.names):
        row = {}
        for j, nj in enumerate(sc.names):
            entries = {
                nk: str(sc.tensor[i][j][k])
                for k, nk in enumerate(sc.names)
                if not sc.tensor[i][j][k].is_zero
            }
            row[nj] = {"kind": kinds[i][j], "coefficients": entries}
        tensor[ni] = row
    payload = {
        "basis": list(sc.names),
        "parities": [_PARITY_NAMES[p] for p in sc.parities],
        "tensor": tensor,
    }

    def text() -> list[str]:
        lines = [f"graded structure constants of {{{', '.join(sc.names)}}}"]
        for i, left in enumerate(sc.names):
            for right in sc.names[i:]:
                entry = tensor[left][right]
                open_b, close_b = "{}" if entry["kind"] == ANTICOMMUTATOR else "[]"
                value = render_sum((c, name) for name, c in entry["coefficients"].items())
                lines.append(f"  {open_b}{left},{right}{close_b} = {value}")
        return lines + [
            "  (commutator pairs: the reversed bracket is the negative;"
            " anticommutators are symmetric)"
        ]

    return {"structure": payload}, text, 0


# -- spectrum ---------------------------------------------------------------------


def cmd_spectrum(config: RunConfig) -> CommandResult:
    energies = spectrum(config.dim, config.hbar_omega)
    rows = [
        {
            "n": n,
            "E": energies[n],
            "k3": str(Fraction(2 * n + 1, 4)),
            "parity": "+" if n % 2 == 0 else "-",
            "norm_plus": str(plus),
            "norm_minus": str(minus),
        }
        for n, (plus, minus) in enumerate(map(norm_condition, range(config.dim)))
    ]

    def text() -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        # a str is emitted as it is: the CSV keeps its \r\n line endings
        return buffer.getvalue()

    return {"spectrum": rows}, text, 0


# -- entry point ---------------------------------------------------------------------

# option -> (RunConfig field, argparse keywords); every default lives in RunConfig
OPTIONS = {
    "--dim": ("dim", {"type": int, "help": f"truncation dimension, at most {DIM_LIMIT}"}),
    "--hbar-omega": ("hbar_omega", {"type": float, "help": "energy quantum ħω"}),
    "--tol": ("tolerance", {"type": float, "help": "numeric residual tolerance"}),
    "--format": ("output_format", {"choices": ("text", "json"), "help": "output format"}),
    "--seed": ("seed_state", {"type": int, "help": "starting number state"}),
    "--set": ("generator_set", {"help": "predefined set or comma-separated names"}),
    "--max-dim": ("max_dim", {"type": int, "help": "closure size bound"}),
    "--mode": (
        "mode",
        {"choices": (GRADED, COMMUTATOR_ONLY), "help": "bracket convention used for closure"},
    ),
}

# subcommand -> (function, help, options it reads, RunConfig defaults it overrides)
COMMANDS = {
    "verify": (cmd_verify, "run the full verification suite", ("--dim", "--tol", "--format"), {}),
    "closure": (cmd_closure, "bracket-close a generator set",
                ("--set", "--mode", "--max-dim", "--format"), {"generator_set": "minimal"}),
    "orbit": (cmd_orbit, "number-state reachability",
              ("--dim", "--seed", "--set", "--format"), {}),
    "structure": (cmd_structure, "graded structure-constant table", ("--format",), {}),
    "spectrum": (cmd_spectrum, "per-level spectrum table",
                 ("--dim", "--hbar-omega", "--format"), {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="oscalgebra",
        description="exact ladder-operator algebra of the harmonic oscillator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, defaults) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for option in options:
            field_name, keywords = OPTIONS[option]
            command.add_argument(option, dest=field_name, default=argparse.SUPPRESS, **keywords)
        command.set_defaults(**defaults)
    return parser


def _parse_plain(argv: list[str]) -> dict | None:
    """``vars(build_parser().parse_args(argv))`` for plain argv (see the module
    docstring); ``None`` for any other, which argparse then parses and reports."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    _, _, options, defaults = COMMANDS[argv[0]]
    args = {"command": argv[0], **defaults}
    for option, value in zip(argv[1::2], argv[2::2]):
        if option not in options or value.startswith("-"):
            return None
        field_name, keywords = OPTIONS[option]
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        args[field_name] = value
    return args


def _check_options(config: RunConfig) -> None:
    if not 1 <= config.dim <= DIM_LIMIT:
        raise ValueError(f"--dim must be between 1 and {DIM_LIMIT}")
    if not (math.isfinite(config.hbar_omega) and config.hbar_omega > 0):
        raise ValueError("--hbar-omega must be positive and finite")
    if not (math.isfinite(config.tolerance) and config.tolerance >= 0):
        raise ValueError("--tol must be non-negative and finite")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or vars(build_parser().parse_args(argv))
    run = COMMANDS[args.pop("command")][0]
    config = RunConfig(**args)
    try:
        _check_options(config)
        payload, render, status = run(config)
    except ClosureOverflowError as err:
        print(f"not closed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if config.output_format == "json":
        envelope = {"version": REPORT_VERSION, "config": asdict(config), **payload}
        # the encoder's chunks go out in batches, so the whole document is
        # never held as one string (indent keeps json on its Python encoder)
        chunks = itertools.chain(json.JSONEncoder(indent=2).iterencode(envelope), "\n")
    else:
        text = render()
        chunks = iter([text if isinstance(text, str) else "\n".join(text) + "\n"])
    try:
        while batch := list(itertools.islice(chunks, 4096)):
            sys.stdout.write("".join(batch))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so the final
        # flush at exit cannot fail again (Python's documented SIGPIPE pattern)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
