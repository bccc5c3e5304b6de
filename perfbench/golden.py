"""Correctness gate: job outputs against golden outputs from a known-good commit.

Each output is split into an exact part and a numeric part.  The exact part
(closure bases and overflow names, orbit partitions, the structure tensor,
the exact spectrum fields, the symbolic checks and Casimir value of
`verify`, every echoed configuration) is serialised canonically and compared
byte for byte through its SHA-256.  Numeric checks of `verify` are compared
by name and status only, with each residual at or below its tolerance, so
that precision work may change residual digits.  Spectrum energies are
compared to the golden values within a relative 1e-9.  Orbit outputs are
stored once per generator set: the start state is an input, and the
reachable set must be the partition block that contains it.

Usage:  python3 perfbench/golden.py   # capture perfbench/golden.json
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
ENERGY_RTOL = 1e-9


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(value) -> str:
    text = json.dumps(value, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_key(argv: list[str]) -> str:
    argv = list(argv)
    if argv and argv[0] == "orbit" and "--seed" in argv:
        argv[argv.index("--seed") + 1] = "*"
    return " ".join(argv)


def closure_key(call: dict) -> str:
    return "close_under_bracket " + json.dumps(call, separators=(",", ":"))


def split_json(text: str) -> list:
    """Parse a stream of concatenated JSON documents."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def _cli_parts(argv: list[str], doc: dict) -> tuple[dict, list[float], list[str]]:
    """(exact part, numeric values, problems found without the golden)."""
    exact = copy.deepcopy(doc)
    numeric: list[float] = []
    problems: list[str] = []
    command = argv[0]
    if command == "verify":
        tolerance = doc["config"]["tolerance"]
        for check in exact["checks"]:
            if check["mode"] != "numeric":
                continue
            residual = check.pop("residual")
            del check["detail"]
            if not (isinstance(residual, (int, float)) and residual <= tolerance):
                problems.append(f"{check['name']}: residual {residual} above {tolerance}")
    elif command == "orbit":
        start = int(argv[argv.index("--seed") + 1])
        orbits = exact["orbits"]
        if exact["config"].pop("seed_state") != start or orbits.pop("seed") != start:
            problems.append(f"orbit start state is not {start}")
        reachable = orbits.pop("reachable")
        block = next((b for b in orbits["partition"] if start in b), None)
        if reachable != block:
            problems.append(f"reachable set from {start} is not its partition block")
    elif command == "spectrum":
        numeric = [row.pop("E") for row in exact["spectrum"]]
    return exact, numeric, problems


def fingerprint_cli(argv: list[str], status, doc: dict) -> dict:
    exact, numeric, _ = _cli_parts(argv, doc)
    entry = {"status": status, "sha256": digest(exact)}
    if numeric:
        entry["numeric"] = numeric
    return entry


def check_cli(argv: list[str], status, doc, golden: dict) -> list[str]:
    key = cli_key(argv)
    expected = golden["outputs"].get(key)
    if expected is None:
        return [f"{key}: no golden output"]
    if status != expected["status"]:
        return [f"{key}: exit status {status}, expected {expected['status']}"]
    try:
        exact, numeric, problems = _cli_parts(argv, doc)
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        return [f"{key}: malformed output ({err!r})"]
    errors = [f"{key}: {p}" for p in problems]
    if digest(exact) != expected["sha256"]:
        errors.append(f"{key}: exact output differs from the golden output")
    want = expected.get("numeric", [])
    if len(numeric) != len(want) or not all(
        isinstance(x, (int, float)) and math.isclose(x, y, rel_tol=ENERGY_RTOL)
        for x, y in zip(numeric, want)
    ):
        errors.append(f"{key}: numeric values differ from the golden output")
    return errors


def check_job(job: dict, statuses: list, stdout: str, golden: dict) -> list[str]:
    """Every mismatch between one job's outputs and the golden outputs."""
    try:
        docs = split_json(stdout)
    except ValueError as err:
        return [f"output is not JSON ({err})"]
    if job["kind"] == "closure":
        calls = job["calls"]
        doc = docs[0] if len(docs) == 1 and isinstance(docs[0], dict) else {}
        results = doc.get("calls")
        if not isinstance(results, list) or len(results) != len(calls):
            return [f"closure output does not hold one result for each of {len(calls)} calls"]
        return [
            f"{closure_key(call)}: result differs from the golden output"
            for call, result in zip(calls, results)
            if digest(result) != golden["outputs"].get(closure_key(call), {}).get("sha256")
        ]
    commands = job["commands"]
    if len(docs) != len(commands) or len(statuses) != len(commands):
        return [f"{len(docs)} outputs and {len(statuses)} statuses for {len(commands)} commands"]
    errors = []
    for argv, status, doc in zip(commands, statuses, docs):
        errors.extend(check_cli(argv, status, doc, golden))
    return errors


def capture() -> dict:
    """Run one job of every workload and fingerprint each distinct output."""
    import run
    import workloads

    outputs = {}
    for name in workloads.WORKLOADS:
        job = next(workloads.jobs(name, 0))
        outcome = run.run_job(job, traced=False)
        if outcome["errors"]:
            raise SystemExit(f"{name}: {outcome['errors']}")
        docs = split_json(outcome["stdout"])
        if job["kind"] == "closure":
            for call, result in zip(job["calls"], docs[0]["calls"]):
                outputs[closure_key(call)] = {"status": 0, "sha256": digest(result)}
            continue
        for argv, status, doc in zip(job["commands"], outcome["statuses"], docs):
            outputs[cli_key(argv)] = fingerprint_cli(argv, status, doc)
    env = run.stamp()
    return {
        "source": {"git_sha": env["git_sha"], "src_sha256": env["src_sha256"]},
        "outputs": dict(sorted(outputs.items())),
    }


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN_PATH.parent))
    golden = capture()
    lines = [
        f"  {json.dumps(key, ensure_ascii=False)}: {json.dumps(value)}"
        for key, value in golden["outputs"].items()
    ]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "source": {json.dumps(golden["source"])},\n "outputs": {{\n')
        fh.write(",\n".join(lines) + "\n }\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['outputs'])} outputs)")
