"""In-process span recorder for a traced benchmark job.

`install()` wraps the public entry points of every oscalgebra module in the
running interpreter.  Each wrapped call is a span: its parent is the span
that was open when it started.  Spans are aggregated in memory by name and
by (parent name, name) edge, with call counts, total time and self time,
where self time is a span's duration minus the time its child spans cover.
`Tracer.dump()` returns the aggregate once the job ends.

Some spans also update counters (diagonals scanned, term pairs multiplied,
BFS edges, ...).  Counting happens after the wrapped call returns and its
cost is excluded from every enclosing span, so counters do not inflate the
self times they sit beside; it shows only in the traced job's wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

ROOT_SPAN = "job"


class Tracer:
    def __init__(self):
        # open spans: [name, time covered by child spans, excluded time]
        self.stack: list[list] = [[None, 0.0, 0.0]]
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str | None, str], list[float]] = {}
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.stdout_mark = 0  # stdout offset when the last cli.main call ended

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def _close(self, frame: list, elapsed: float, extra_excluded: float) -> None:
        name, child_s, excluded_s = frame
        duration = elapsed - excluded_s
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        parent = self.stack[-1]
        edge = self.edges.get((parent[0], name))
        if edge is None:
            edge = self.edges[(parent[0], name)] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration
        parent[1] += duration
        parent[2] += excluded_s + extra_excluded

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(tracer, args, result, error)
        runs after the call, outside every span's time."""
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                counted = clock()
                if count is not None:
                    count(self, args, result, error)
                self._close(frame, elapsed, clock() - counted)

        return functools.wraps(fn)(traced)

    def dump(self) -> dict:
        return {
            "stats": {
                name: {"calls": int(c), "total_s": t, "self_s": s}
                for name, (c, t, s) in self.stats.items()
            },
            "edges": [
                {"parent": p, "name": n, "calls": int(c), "total_s": t}
                for (p, n), (c, t) in self.edges.items()
            ],
            "counters": dict(self.counters),
            "counting_s": self.stack[0][2],
            "absent": self.absent,
        }


# -- counters -------------------------------------------------------------------


def _count_term_pairs(tracer, args, result, error):
    x, y = args[0], args[1]
    if hasattr(y, "items") and hasattr(x, "items"):
        tracer.counters["weyl.mul.term_pairs"] += len(x.items()) * len(y.items())


def _count_bracket(tracer, args, result, error):
    if error is None and tracer.inside("superalgebra.close") and not result.is_zero:
        tracer.counters["superalgebra.brackets"] += 1


def _count_closure(tracer, args, result, error):
    if error is None:
        tracer.counters["superalgebra.added"] += len(result.added)
    elif hasattr(error, "names"):
        try:
            seed_size = len(args[0])
        except TypeError:
            return
        tracer.counters["superalgebra.added"] += len(error.names) - seed_size


def _occupied_diagonals(matrix) -> int:
    import numpy as np

    rows, cols = np.nonzero(matrix)
    return len(np.unique(cols - rows))


def _count_band_product(tracer, args, result, error):
    if error is not None:
        return
    a, b = args[0], args[1]
    n = a.shape[0]
    occupied = _occupied_diagonals(a) + _occupied_diagonals(b)
    tracer.counters["fock.band_product.diagonals_scanned"] += 2 * (2 * n - 1)
    tracer.counters["fock.band_product.diagonals_occupied"] += occupied
    # A dense scan reads both operands and writes the zero-filled result.
    tracer.counters["fock.band_product.bytes_computed"] += a.nbytes + b.nbytes + result.nbytes


def _count_to_matrix(tracer, args, result, error):
    if error is None:
        entries = getattr(result, "entries", None)
        if entries is not None:
            tracer.counters["fock.to_matrix.bytes_computed"] += entries.nbytes


def _count_ladder(tracer, args, result, error):
    if error is None and tracer.inside("fock.orbit"):
        n = args[1]
        tracer.counters["fock.orbit.edges"] += sum(1 for m in result if m != n)


def _stdout_offset() -> int:
    # cli.main writes to sys.stdout; the job's stdout is a regular file.
    sys.stdout.flush()
    return os.lseek(sys.stdout.fileno(), 0, os.SEEK_CUR)


def _count_output(tracer, args, result, error):
    position = _stdout_offset()
    tracer.counters["cli.output_bytes"] += position - tracer.stdout_mark
    tracer.stdout_mark = position


# (span name, module, attribute path, counter); an attribute path with a dot
# names a method, patched on its class.
_SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "inverse",
)
ENTRY_POINTS = [
    *(("scalar.arith", "oscalgebra.scalar", f"Scalar.{op}", None) for op in _SCALAR_OPS),
    ("weyl.mul", "oscalgebra.weyl", "WeylPolynomial.__mul__", _count_term_pairs),
    ("weyl.commutator", "oscalgebra.weyl", "commutator", _count_bracket),
    ("weyl.anticommutator", "oscalgebra.weyl", "anticommutator", _count_bracket),
    ("weyl.graded_bracket", "oscalgebra.weyl", "graded_bracket", None),
    ("relations", "oscalgebra.relations", "all_relations", None),
    ("relations", "oscalgebra.relations", "casimir_commutation_checks", None),
    ("relations", "oscalgebra.relations", "Relation.residual_poly", None),
    ("relations", "oscalgebra.relations", "Relation.lhs", None),
    ("superalgebra.close", "oscalgebra.superalgebra", "close_under_bracket", _count_closure),
    ("superalgebra.basis", "oscalgebra.superalgebra", "AlgebraBasis.__init__", None),
    ("superalgebra.basis", "oscalgebra.superalgebra", "AlgebraBasis.span_coefficients", None),
    ("superalgebra.structure", "oscalgebra.superalgebra", "structure_constants", None),
    ("superalgebra.jacobi", "oscalgebra.superalgebra", "graded_jacobi_check", None),
    ("superalgebra.jacobi", "oscalgebra.superalgebra", "jacobi_from_constants", None),
    ("amplitudes.construct", "oscalgebra.amplitudes", "ExactAmplitude.__init__", None),
    ("amplitudes.square_free", "oscalgebra.amplitudes", "square_free", None),
    ("fock.to_matrix", "oscalgebra.fock", "to_matrix", _count_to_matrix),
    ("fock.band_product", "oscalgebra.fock", "band_product", _count_band_product),
    ("fock.residuals", "oscalgebra.fock", "relation_residuals", None),
    ("fock.ladder_amplitude", "oscalgebra.fock", "ladder_amplitude", _count_ladder),
    ("fock.norm_condition", "oscalgebra.fock", "norm_condition", None),
    ("fock.orbit", "oscalgebra.fock", "orbit", None),
    ("fock.spectrum", "oscalgebra.fock", "spectrum", None),
    ("report.as_dict", "oscalgebra.report", "VerificationReport.as_dict", None),
    ("cli.main", "oscalgebra.cli", "main", _count_output),
]


def install() -> Tracer:
    """Wrap every entry point in ENTRY_POINTS that exists.

    A module-level function is replaced in every loaded oscalgebra module
    that holds a reference to it, so `from .fock import orbit` in the CLI
    sees the wrapper too.  A missing entry point is recorded as absent.
    """
    tracer = Tracer()
    for span, module_name, path, count in ENTRY_POINTS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        wrapped = tracer.wrap(span, original, count)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for name, loaded in list(sys.modules.items()):
            if name == "oscalgebra" or name.startswith("oscalgebra."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
    tracer.stdout_mark = _stdout_offset()
    return tracer
