"""Run one benchmark job in a fresh interpreter, as a user's process would.

Usage:  python3 perfbench/child.py JOB_JSON RECORD_PATH TRACE(0|1)

The job's outputs go to this process's stdout.  Timings, peak memory and,
when traced, the span aggregate go to RECORD_PATH as JSON.  Set-up ends when
`oscalgebra` and its CLI module are imported, which is what the
`oscalgebra` console script loads before it runs a command; the timed
interval runs from the start of the job to the flush of its last output.
"""

import sys
import time

import oscalgebra
import oscalgebra.cli

IMPORTED = time.monotonic()

import json  # noqa: E402  (already loaded by oscalgebra.cli)
import resource  # noqa: E402
import traceback  # noqa: E402


def run_cli(job: dict) -> list:
    statuses = []
    for argv in job["commands"]:
        try:
            statuses.append(oscalgebra.cli.main(argv))
        except SystemExit as exit_:
            statuses.append(exit_.code)
    return statuses


def run_closure(job: dict) -> list:
    results = []
    for call in job["calls"]:
        seed = [oscalgebra.monomial(p, q) for p, q in call["seed"]]
        try:
            closed = oscalgebra.close_under_bracket(
                seed, mode=call["mode"], max_dim=call["max_dim"]
            )
        except oscalgebra.ClosureOverflowError as err:
            results.append({"overflow": list(err.names)})
            continue
        results.append(
            {
                "dimension": closed.basis.dim,
                "generations": closed.generations,
                "added": list(closed.added),
                "basis": [
                    {
                        "name": name,
                        "parity": "even" if elem.parity == 0 else "odd",
                        "polynomial": str(elem.poly),
                    }
                    for name, elem in closed.basis
                ],
            }
        )
    print(json.dumps({"calls": results}, ensure_ascii=False))
    return [0] * len(results)


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    record_path = argv[2]
    tracer = None
    run = run_cli if job["kind"] == "cli" else run_closure
    if argv[3] == "1":
        import spans

        tracer = spans.install()
        run = tracer.wrap(spans.ROOT_SPAN, run)

    record = {"imported": IMPORTED, "module_file": oscalgebra.__file__}
    start = time.monotonic()
    try:
        record["statuses"] = run(job)
    except Exception:
        record["error"] = traceback.format_exc()
    sys.stdout.flush()
    record["job_s"] = time.monotonic() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy

    record["numpy"] = numpy.__version__
    record["longdouble_eps"] = float(numpy.finfo(numpy.longdouble).eps)
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
