"""oscalgebra benchmark: a closed loop with one client, one job at a time.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

Each job runs in a fresh Python child (perfbench/child.py), because every
CLI call and every script run is a fresh process for a user.  New jobs start
until --seconds have passed.  Outputs are checked against the golden outputs
after each job, outside its timed interval; a mismatch, unexpected exit
status, exception or timeout counts as a failed job and the run continues.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1 each
job runs twice, untraced and then with every oscalgebra entry point wrapped
in a span, and the result holds the per-layer metrics of the traced runs;
the span aggregates are written to .perfbench_work/.  The last line of
stdout is the result as one JSON object; the lines before it give the
environment stamp and a readable summary.  `--workload all` prints the
end-to-end metrics of every workload by name with their units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
JOB_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import golden  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("scalar", "weyl", "relations", "superalgebra", "amplitudes", "fock", "report", "cli")


def run_job(job: dict, traced: bool) -> dict:
    """Run one job in a fresh child; return its timings, outputs and errors."""
    WORK.mkdir(exist_ok=True)
    tag = f"{os.getpid()}"
    paths = [WORK / f"{kind}-{tag}" for kind in ("stdout", "stderr", "record")]
    try:
        return _run_child(job, traced, *paths)
    finally:
        for path in paths:
            path.unlink(missing_ok=True)


def _run_child(job: dict, traced: bool, stdout_path, stderr_path, record_path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(job), str(record_path)]
    argv.append("1" if traced else "0")
    outcome = {"traced": traced, "errors": [], "statuses": [], "stdout": ""}
    with open(stdout_path, "w+b") as out, open(stderr_path, "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            outcome["errors"].append(f"timed out after {JOB_TIMEOUT_S} s")
            return outcome
        out.seek(0)
        outcome["stdout"] = out.read().decode("utf-8", errors="replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    if code != 0:
        outcome["errors"].append(f"child exited with status {code}: {stderr[-2000:]}")
    try:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        outcome["errors"].append("child wrote no record")
        return outcome
    if "error" in record:
        outcome["errors"].append(record["error"])
    if not Path(record["module_file"]).resolve().is_relative_to(ROOT / "src"):
        outcome["errors"].append(f"oscalgebra imported from {record['module_file']}")
    outcome.update(
        statuses=record.get("statuses", []),
        setup_s=record["imported"] - spawned,
        job_s=record["job_s"],
        peak_rss_mb=record["peak_rss_mb"],
        numpy=record["numpy"],
        longdouble_eps=record["longdouble_eps"],
        trace=record.get("trace"),
    )
    return outcome


def stamp(**extra) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            sha = done.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        **extra,
    }


# -- metrics ---------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: dict, job_s: float, untraced_job_s: float) -> dict:
    """Per-layer metrics of one traced job."""
    stats, counters = trace["stats"], trace["counters"]

    def calls(*names):
        return sum(stats.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(stats.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "fock.band_product.calls": calls("fock.band_product"),
        "fock.band_product.self_s": self_s("fock.band_product"),
        "fock.band_product.bytes_computed": counters.get("fock.band_product.bytes_computed", 0),
        "fock.band_product.diagonal_yield": ratio(
            counters.get("fock.band_product.diagonals_occupied", 0),
            counters.get("fock.band_product.diagonals_scanned", 0),
        ),
        "fock.to_matrix.calls": calls("fock.to_matrix"),
        "fock.to_matrix.self_s": self_s("fock.to_matrix"),
        "fock.to_matrix.bytes_computed": counters.get("fock.to_matrix.bytes_computed", 0),
        "fock.residuals.self_s": self_s("fock.residuals"),
        "scalar.ops": calls("scalar.arith"),
        "scalar.self_s": self_s("scalar.arith"),
        "weyl.mul.calls": calls("weyl.mul"),
        "weyl.mul.term_pairs": counters.get("weyl.mul.term_pairs", 0),
        "weyl.mul.self_s": self_s("weyl.mul"),
        "weyl.bracket.calls": calls("weyl.commutator", "weyl.anticommutator"),
        "superalgebra.close.self_s": self_s("superalgebra.close"),
        "superalgebra.brackets": counters.get("superalgebra.brackets", 0),
        "superalgebra.bracket_yield": ratio(
            counters.get("superalgebra.added", 0), counters.get("superalgebra.brackets", 0)
        ),
        "amplitudes.constructions": calls("amplitudes.construct"),
        "amplitudes.square_free.calls": calls("amplitudes.square_free"),
        "amplitudes.self_s": self_s("amplitudes.construct", "amplitudes.square_free"),
        "fock.ladder_amplitude.calls": calls("fock.ladder_amplitude"),
        "fock.ladder_amplitude.self_s": self_s("fock.ladder_amplitude"),
        "fock.orbit.self_s": self_s("fock.orbit"),
        "fock.orbit.edges": counters.get("fock.orbit.edges", 0),
        "fock.spectrum.self_s": self_s("fock.spectrum"),
        "superalgebra.basis.self_s": self_s("superalgebra.basis"),
        "superalgebra.structure.self_s": self_s("superalgebra.structure"),
        "superalgebra.jacobi.self_s": self_s("superalgebra.jacobi"),
        "relations.self_s": self_s("relations"),
        "report.self_s": self_s("report.as_dict"),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": counters.get("cli.output_bytes", 0),
        "trace.overhead_ratio": ratio(job_s, untraced_job_s),
    }


def layer_shares(trace: dict, job_s: float) -> dict:
    """Share of the traced job time spent in each layer's own code."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, stat in trace["stats"].items():
        layer = name.split(".")[0]
        if layer in shares:
            shares[layer] += stat["self_s"] / job_s
    return shares


def run_workload(workload: str, seed: int, seconds: float, trace: bool, gold: dict) -> dict:
    run_job({"kind": "cli", "commands": []}, traced=False)  # warm caches, compile bytecode
    jobs = workloads.jobs(workload, seed)
    outcomes, walls = [], []
    started = time.monotonic()
    # Start another job only while it is expected to end mostly inside the
    # run, so that a run lasts about `seconds` whatever the job length.
    while not walls or time.monotonic() - started + statistics.median(walls) / 2 < seconds:
        job = next(jobs)
        job_started = time.monotonic()
        for traced in (False, True) if trace else (False,):
            outcome = run_job(job, traced)
            if not outcome["errors"]:
                outcome["errors"] = golden.check_job(
                    job, outcome["statuses"], outcome["stdout"], gold
                )
            outcome["job"] = job
            outcomes.append(outcome)
        walls.append(time.monotonic() - job_started)
    return summarize(outcomes, trace)


def summarize(outcomes: list[dict], trace: bool) -> dict:
    timed = [o for o in outcomes if not o["traced"] and "job_s" in o]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o["errors"])
    correct_s = [o["job_s"] for o in timed if not o["errors"]]
    summary = {
        "attempted": attempted,
        "failed": failed,
        "samples": len(timed),
        "errors": [e for o in outcomes for e in o["errors"]],
        "end_to_end": {
            "op_p50_s": _median([o["job_s"] for o in timed]),
            "ops_per_s": len(correct_s) / sum(o["job_s"] for o in timed) if timed else 0.0,
            "peak_rss_mb": _median([o["peak_rss_mb"] for o in timed]),
            "setup_s": _median([o["setup_s"] for o in timed]),
        },
        "error_rate": failed / attempted,
        "numpy": timed[0]["numpy"] if timed else None,
        "longdouble_eps": timed[0]["longdouble_eps"] if timed else None,
        "traces": [],
    }
    per_job, shares = [], []
    pairs = zip(outcomes[::2], outcomes[1::2]) if trace else ()
    for untraced, traced in pairs:
        if "job_s" not in untraced or not traced.get("trace"):
            continue
        per_job.append(layer_metrics(traced["trace"], traced["job_s"], untraced["job_s"]))
        shares.append(layer_shares(traced["trace"], traced["job_s"]))
        summary["traces"].append({"job": traced["job"], "job_s": traced["job_s"], **traced["trace"]})
        summary["absent"] = traced["trace"]["absent"]
    if per_job:
        summary["per_layer"] = {k: _median([m[k] for m in per_job]) for k in per_job[0]}
        summary["layer_share"] = {k: _median([s[k] for s in shares]) for k in shares[0]}
    return summary


def result_line(summary: dict, spec: dict, trace: bool) -> dict:
    section = "per_layer" if trace else "end_to_end"
    values = summary[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oscalgebra" / "__init__.py").is_file():
        print(f"error: no oscalgebra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    gold = golden.load()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) and args.workload != "all"

    for name in names:
        summary = run_workload(name, args.seed, args.seconds, trace, gold)
        if summary["samples"] == 0 or (trace and "per_layer" not in summary):
            print(f"error: no job of {name} completed", file=sys.stderr)
            for error in summary["errors"][:5]:
                print(error, file=sys.stderr)
            return 1
        env = stamp(
            workload=name,
            seed=args.seed,
            seconds=args.seconds,
            trace=int(trace),
            numpy=summary["numpy"],
            longdouble_eps=summary["longdouble_eps"],
        )
        print(json.dumps({"stamp": env}))
        for error in summary["errors"][:5]:
            print(f"FAILED {name}: {error}", file=sys.stderr)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for metric, value in summary["end_to_end"].items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
        print(f"{name} samples {summary['samples']} jobs")
        print(f"{name} error_rate {summary['error_rate']:.6g} ratio")
        if trace:
            WORK.mkdir(exist_ok=True)
            out = WORK / f"trace-{name}-seed{args.seed}.json"
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"stamp": env, "jobs": summary["traces"]}, fh, ensure_ascii=False)
            shares = " ".join(f"{k}={v:.3f}" for k, v in summary["layer_share"].items())
            print(f"{name} layer self-time shares: {shares}")
            if summary.get("absent"):
                print(f"{name} absent entry points (metrics read 0): {summary['absent']}")
    if args.workload != "all":
        print(json.dumps(result_line(summary, spec, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
