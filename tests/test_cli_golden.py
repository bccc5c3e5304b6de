"""Byte-for-byte golden output of the commands in scripts/run_full_verification.py.

Every command runs at dim 64 in both formats; stdout must match the file in
tests/golden/ exactly and the exit status must be 0.  Only the floating
residuals of `verify` are masked (the numeric `residual` values, the
`full-matrix residual` in each detail and their %.3e text forms), so that
precision work on the numeric layer does not churn the files.  Exact markers,
names, statuses and the config block are compared as they are.

Regenerate the files with `PYTHONPATH=src python tests/test_cli_golden.py`.

The large outputs, orbits and the spectrum at dim 3000, are pinned by the
SHA-256 of their unmasked stdout instead of a file; a change that means to
alter them updates the digests in `LARGE_DIGESTS` by hand.
"""

import hashlib
import re
from pathlib import Path

import pytest

from oscalgebra import fock
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

LARGE_COMMANDS = {
    "orbit_osp_seed5_dim3000": ["orbit", "--set", "osp", "--seed", "5", "--dim", "3000"],
    "orbit_so21_seed7_dim3000": ["orbit", "--set", "so21", "--seed", "7", "--dim", "3000"],
    "spectrum_dim3000": ["spectrum", "--dim", "3000"],
}
LARGE_DIGESTS = {
    ("orbit_osp_seed5_dim3000", "json"): "fd0fd31a759d629c637a787dd3fb2c8f29780938dc5f91f9b5b50876f2051d0d",
    ("orbit_osp_seed5_dim3000", "text"): "bc87fceee27b7a8b9ae53e44ec258052a535abdbb4006b63fe53a5fe44d08ab1",
    ("orbit_so21_seed7_dim3000", "json"): "f72baaf05bff0e2399fb7ecca923038f70481c13902e904acf76286f027703ba",
    ("orbit_so21_seed7_dim3000", "text"): "90335207bd0674f6cff58fcd6ef94b15ab4135e8c47c6a76e268dba6228bf341",
    ("spectrum_dim3000", "json"): "8196d203b3bb43e2c97fb971cf560d7c3544194dc8ed3906b04d253a2b5c1c79",
    ("spectrum_dim3000", "text"): "f9ea728b791ceef9edd457e33ddf5ff83cc33e028773d77988c36dcb8e1c9c3b",
}

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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", LARGE_COMMANDS)
def test_large_output_matches_digest(name, fmt, capsys):
    code = main([*LARGE_COMMANDS[name], "--format", fmt])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == LARGE_DIGESTS[name, fmt]


@pytest.mark.parametrize("fmt", FORMATS)
def test_spectrum_builds_no_float_band(fmt, capsys, monkeypatch):
    # the energies are ħω(n+½) in closed form: no band and no matrix is built
    def unused(*args, **kwargs):
        raise AssertionError("spectrum built a float band")

    monkeypatch.setattr(fock, "_band_builder", unused)
    monkeypatch.setattr(fock, "to_matrix", unused)
    test_large_output_matches_digest("spectrum_dim3000", fmt, capsys)


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
