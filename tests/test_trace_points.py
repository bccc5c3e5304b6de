"""The benchmark's traced entry points must keep resolving as src/ changes.

perfbench/spans.py wraps each ENTRY_POINTS path and records a missing one as
absent; this test resolves the same paths, the same way, without wrapping
anything, so a deletion in src/ cannot silently drop a traced span.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# band_product is gone (the kernel's product is fock.padded_product);
# the span list has not followed yet
KNOWN_ABSENT = {"oscalgebra.fock.band_product"}


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.ENTRY_POINTS


def test_benchmark_entry_points_resolve():
    unresolved = set()
    for _, module_name, path, _ in _entry_points():
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or vars(owner).get(attr) is None:
            unresolved.add(f"{module_name}.{path}")
    assert unresolved <= KNOWN_ABSENT
