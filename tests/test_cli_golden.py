"""Byte-for-byte golden output of the commands in scripts/run_full_verification.py.

Every command runs at dim 64 in both formats; stdout must match the file in
tests/golden/ exactly and the exit status must be 0.  Only the floating
residuals of `verify` are masked (the numeric `residual` values, the
`full-matrix residual` in each detail and their %.3e text forms), so that
precision work on the numeric layer does not churn the files.  Exact markers,
names, statuses and the config block are compared as they are.

Regenerate the files with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import re
from pathlib import Path

import pytest

from oscalgebra.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
DIM = "64"

COMMANDS = {
    "verify": ["verify", "--dim", DIM],
    "closure_minimal_graded": ["closure", "--set", "minimal", "--mode", "graded"],
    "closure_minimal_commutator_only": [
        "closure", "--set", "minimal", "--mode", "commutator-only",
    ],
    "closure_q_qdag_graded": ["closure", "--set", "Q,Qdag", "--mode", "graded"],
    "closure_so21_graded": ["closure", "--set", "so21", "--mode", "graded"],
    "orbit_so21_seed0": ["orbit", "--set", "so21", "--seed", "0", "--dim", DIM],
    "orbit_so21_seed3": ["orbit", "--set", "so21", "--seed", "3", "--dim", DIM],
    "orbit_osp_seed7": ["orbit", "--set", "osp", "--seed", "7", "--dim", DIM],
    "orbit_q_qdag_seed0": ["orbit", "--set", "Q,Qdag", "--seed", "0", "--dim", DIM],
    "structure": ["structure"],
    "spectrum": ["spectrum", "--dim", "8"],
}
FORMATS = ("text", "json")

_FLOAT = r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?"
_JSON_RESIDUAL = re.compile(rf'("residual": ){_FLOAT}')
_FULL_MATRIX = re.compile(rf"(full-matrix residual ){_FLOAT}")
_TEXT_RESIDUAL = re.compile(r"-?\d\.\d{3}e[+-]\d+")


def mask_residuals(name: str, out: str) -> str:
    if name != "verify":
        return out
    out = _JSON_RESIDUAL.sub(r'\1"<residual>"', out)
    out = _FULL_MATRIX.sub(r"\1<residual>", out)
    return _TEXT_RESIDUAL.sub("<residual>", out)


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{name}.{fmt}"


def run_masked(name: str, fmt: str, capture) -> tuple[int, bytes]:
    code = main([*COMMANDS[name], "--format", fmt])
    out = capture()
    return code, mask_residuals(name, out).encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", COMMANDS)
def test_cli_output_matches_golden(name, fmt, capsys):
    code, out = run_masked(name, fmt, lambda: capsys.readouterr().out)
    assert code == 0
    assert out == golden_path(name, fmt).read_bytes()


def test_masking_keeps_exact_entries():
    text = "[PASS] K² = 3/16   0 (exact)\n[PASS] K² = 3/16   5.551e-17  window 56×56 of 64; full-matrix residual 5.200e+02"
    masked = mask_residuals("verify", text)
    assert "0 (exact)" in masked
    assert masked.count("<residual>") == 2
    doc = '"residual": "0 (exact)",\n"residual": 3.2e-17,\n"residual": null'
    assert mask_residuals("verify", doc) == (
        '"residual": "0 (exact)",\n"residual": "<residual>",\n"residual": null'
    )


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in COMMANDS:
        for fmt in FORMATS:
            buffer = io.StringIO(newline="")
            with contextlib.redirect_stdout(buffer):
                code, out = run_masked(name, fmt, buffer.getvalue)
            assert code == 0, (name, fmt, code)
            golden_path(name, fmt).write_bytes(out)
