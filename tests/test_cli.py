import contextlib
import functools
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oscalgebra
from oscalgebra import cli, weyl
from oscalgebra.cli import RunConfig, build_verify_report, main, resolve_generator_names
from oscalgebra.report import INFORMATIONAL, VerificationReport
from oscalgebra.weyl import monomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dim", "16")
    assert code == 0
    assert "summary:" in out
    assert " 0 failed" in out
    assert "casimir eigenvalue: 3/16" in out


def test_verify_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dim", "16", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["version"] == 1
    assert envelope["config"]["dim"] == 16
    assert envelope["casimir"] == "3/16"
    names = [c["name"] for c in envelope["checks"]]
    assert "[K+,K-] = -2·K3" in names
    assert "{Q,Q†} = 2·K3" in names
    symbolic = [c for c in envelope["checks"] if c["name"] == "{Q,Q†} = 2·K3"]
    assert symbolic[0]["residual"] == "0 (exact)"


def test_verify_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "verify", "--dim", "16", "--format", "json")
    envelope = json.loads(out)
    assert build_verify_report(RunConfig(dim=16)).as_dict() == {"checks": envelope["checks"]}
    assert envelope["casimir"] == "3/16"
    config = RunConfig(**envelope["config"])
    assert config.dim == 16


def test_verify_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--dim", "16", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "--dim", "16", "--format", "json")
    assert first == second


def test_verify_rejects_bad_tol(capsys):
    for bad in ("nan", "-1"):
        code, out, _ = run_cli(capsys, "verify", "--dim", "16", "--tol", bad)
        assert code == 2
        assert out == ""


def test_dim_above_limit_rejected(capsys):
    for command in ("verify", "orbit", "spectrum"):
        code, out, err = run_cli(capsys, command, "--dim", "1000001")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_verify_rejects_empty_window(capsys):
    code, _, err = run_cli(capsys, "verify", "--dim", "6")
    assert code == 2
    assert "window" in err


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    # exit status must be nonzero iff a non-informational check fails
    import oscalgebra.cli as cli
    from oscalgebra.report import Check, FAIL, MODE_NUMERIC, MODE_SYMBOLIC, informational

    broken = VerificationReport(
        checks=[
            Check("forced failure", MODE_NUMERIC, FAIL, residual=1.0),
            Check("forced symbolic", MODE_SYMBOLIC, FAIL, detail="planted"),
            informational("forced note", "planted"),
        ]
    )
    monkeypatch.setattr(cli, "build_verify_report", lambda config: broken)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "2 failed" in out
    # a failing symbolic row and an informational row have no residual
    marker = {c.name: next(line.split(c.name)[1].split()[0]
                           for line in out.splitlines() if c.name in line)
              for c in broken.checks}
    assert marker == {"forced failure": "1.000e+00", "forced symbolic": "-", "forced note": "-"}
    _, out, _ = run_cli(capsys, "verify", "--format", "json")
    residuals = {c["name"]: c["residual"] for c in json.loads(out)["checks"]}
    assert residuals == {"forced failure": 1.0, "forced symbolic": None, "forced note": None}


def test_verify_failing_casimir_row_names_its_residual(capsys, monkeypatch):
    # a failing [K²,x] = 0 row carries the same detail as every identity row
    name = "[K²,K+] = 0"
    monkeypatch.setattr(cli, "casimir_commutation_checks", lambda: [(name, monomial(2, 0))])
    code, out, _ = run_cli(capsys, "verify", "--dim", "16")
    assert code == 1
    row = next(line for line in out.splitlines() if name in line)
    assert row.startswith("[FAIL]") and row.endswith("-  residual a†²")
    code, out, _ = run_cli(capsys, "verify", "--dim", "16", "--format", "json")
    assert code == 1
    check = next(c for c in json.loads(out)["checks"] if c["name"] == name)
    assert (check["status"], check["residual"], check["detail"]) == ("fail", None, "residual a†²")


def test_verify_report_has_erratum_entries():
    report = build_verify_report(RunConfig(dim=16))
    info = [c for c in report.checks if c.status == INFORMATIONAL]
    assert len(info) == 2
    amplitude = next(c for c in info if "amplitude" in c.name)
    assert "1/2·√2" in amplitude.detail and "√2" in amplitude.detail
    norms = next(c for c in info if "norm" in c.name)
    assert "3/2" in norms.detail and "35/16" in norms.detail
    assert report.passed


# -- closure -------------------------------------------------------------------


def test_closure_minimal_graded(capsys):
    code, out, _ = run_cli(capsys, "closure", "--set", "minimal", "--mode", "graded")
    assert code == 0
    assert "dimension: 5" in out
    assert "K-" in out and "K+" in out


def test_closure_minimal_commutator_only_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "closure",
        "--set",
        "minimal",
        "--mode",
        "commutator-only",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)["closure"]
    assert payload["dimension"] == 4
    assert "1" in payload["added"]
    assert [b["name"] for b in payload["basis"]] == ["K3", "Q", "Q†", "1"]


def test_closure_so21_adds_nothing(capsys):
    code, out, _ = run_cli(capsys, "closure", "--set", "so21", "--format", "json")
    assert code == 0
    payload = json.loads(out)["closure"]
    assert payload["dimension"] == 3
    assert payload["added"] == []


def test_closure_inline_seed(capsys):
    code, out, _ = run_cli(capsys, "closure", "--set", "Q,Qdag", "--format", "json")
    assert code == 0
    assert json.loads(out)["closure"]["dimension"] == 5


def test_closure_overflow_exit_code(capsys):
    code, _, err = run_cli(capsys, "closure", "--set", "Q,Qdag", "--max-dim", "3")
    assert code == 1
    assert "max_dim" in err


def test_closure_unknown_name(capsys):
    code, _, err = run_cli(capsys, "closure", "--set", "nope")
    assert code == 2
    assert "unknown generator" in err


# -- orbit ---------------------------------------------------------------------


def test_orbit_so21_two_blocks(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--set", "so21", "--seed", "0", "--dim", "16")
    assert code == 0
    assert "2 orbits" in out
    assert "even indices" in out and "odd indices" in out


def test_orbit_osp_single_block(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--set", "osp", "--seed", "7", "--dim", "16", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)["orbits"]
    assert len(payload["partition"]) == 1
    assert payload["reachable"] == list(range(payload["window"]))


def test_orbit_diagonal_set_singleton(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--set", "K3", "--seed", "2", "--dim", "16", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["orbits"]["reachable"] == [2]


def test_orbit_seed_out_of_window(capsys):
    code, _, err = run_cli(capsys, "orbit", "--set", "so21", "--seed", "99", "--dim", "16")
    assert code == 2
    assert "window" in err


def test_orbit_empty_window_names_smallest_dim(capsys):
    code, out, err = run_cli(capsys, "orbit", "--dim", "3")
    assert (code, out) == (2, "")
    assert err == (
        "error: dim=3 leaves an empty trusted window for generators of degree 2; "
        "need dim ≥ 5\n"
    )
    code, out, _ = run_cli(capsys, "orbit", "--dim", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["orbits"]["window"] == 1


# -- structure ------------------------------------------------------------------


def test_structure_table_text(capsys):
    code, out, _ = run_cli(capsys, "structure")
    assert code == 0
    assert "{Q†,Q†} = 2·K+" in out
    assert "[K3,Q] = -1/2·Q" in out
    assert "[K+,K-] = -2·K3" in out


def test_structure_json(capsys):
    code, out, _ = run_cli(capsys, "structure", "--format", "json")
    assert code == 0
    payload = json.loads(out)["structure"]
    assert payload["basis"] == ["K+", "K-", "K3", "Q", "Q†"]
    entry = payload["tensor"]["Q†"]["Q†"]
    assert entry["kind"] == "anticommutator"
    assert entry["coefficients"] == {"K+": "2"}
    assert payload["tensor"]["K+"]["K-"]["coefficients"] == {"K3": "-2"}


# -- spectrum -------------------------------------------------------------------


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--dim", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,E,k3,parity,norm_plus,norm_minus"
    assert lines[1] == "0,0.5,1/4,+,1/2,0"
    assert lines[2] == "1,1.5,3/4,-,3/2,0"
    assert lines[3] == "2,2.5,5/4,+,3,1/2"


def test_spectrum_makes_no_product(capsys, monkeypatch):
    # the norms are read off the exact Fock action: no polynomial product at all
    calls, product_sum = [], weyl.product_sum

    def counting(products):
        calls.append(products)
        return product_sum(products)

    monkeypatch.setattr(weyl, "product_sum", counting)
    code, out, _ = run_cli(capsys, "spectrum", "--dim", "100", "--format", "json")
    assert code == 0 and len(json.loads(out)["spectrum"]) == 100
    assert calls == []


def test_spectrum_scaled_json(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--dim", "2", "--hbar-omega", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["spectrum"]
    assert rows[0]["E"] == 1.0
    assert rows[1]["k3"] == "3/4"


def test_spectrum_rejects_bad_hbar_omega(capsys):
    for bad in ("-1", "nan", "inf"):
        code, out, _ = run_cli(capsys, "spectrum", "--hbar-omega", bad)
        assert code == 2
        assert out == ""


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_spectrum_rejects_overflowing_energies(capsys, fmt):
    argv = ("spectrum", "--dim", "3", "--hbar-omega", "1e308", "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# -- name resolution ----------------------------------------------------------------


def test_resolve_predefined_sets():
    assert resolve_generator_names("so21") == ["K+", "K-", "K3"]
    assert resolve_generator_names("heisenberg") == ["Q", "Q†", "1"]


def test_resolve_aliases():
    assert resolve_generator_names("Kp,k_minus,K3") == ["K+", "K-", "K3"]
    assert resolve_generator_names("q,Qdagger,I") == ["Q", "Q†", "1"]


def test_resolve_strips_the_selector(capsys):
    assert resolve_generator_names(" so21 ") == ["K+", "K-", "K3"]
    code, out, _ = run_cli(capsys, "orbit", "--set", " so21", "--format", "json")
    assert code == 0
    assert json.loads(out)["orbits"]["generators"] == ["K+", "K-", "K3"]


def test_resolve_unknown():
    with pytest.raises(ValueError):
        resolve_generator_names("K4")


@pytest.mark.parametrize(
    "argv,repeated",
    [
        (("orbit", "--set", "K+,K+", "--dim", "20"), "K+"),
        (("closure", "--set", "Q,Q"), "Q"),
        (("closure", "--set", "K3,k3"), "K3"),  # one generator under two aliases
        (("orbit", "--set", "Kp,K-,k_plus"), "K+"),
    ],
)
def test_repeated_generator_rejected(capsys, argv, repeated):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"generator {repeated} repeated" in err


# -- options and output pipe ----------------------------------------------------------

# the options each subcommand reads, with a valid value for each option
ACCEPTED_OPTIONS = {
    "verify": ("--dim", "--tol", "--format"),
    "closure": ("--set", "--mode", "--max-dim", "--format"),
    "orbit": ("--dim", "--seed", "--set", "--format"),
    "structure": ("--format",),
    "spectrum": ("--dim", "--hbar-omega", "--format"),
}
OPTION_VALUES = {
    "--dim": "16", "--hbar-omega": "2", "--tol": "1e-9", "--format": "json",
    "--seed": "1", "--set": "so21", "--max-dim": "4", "--mode": "graded",
}


@pytest.mark.parametrize("command", ACCEPTED_OPTIONS)
def test_subcommand_accepts_the_options_it_reads(command, capsys):
    argv = [command]
    for option in ACCEPTED_OPTIONS[command]:
        argv += [option, OPTION_VALUES[option]]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["version"] == 1


@pytest.mark.parametrize("command", ACCEPTED_OPTIONS)
def test_subcommand_rejects_options_it_does_not_read(command, capsys):
    unread = [o for o in OPTION_VALUES if o not in ACCEPTED_OPTIONS[command]]
    assert len(unread) == len(OPTION_VALUES) - len(ACCEPTED_OPTIONS[command])
    for option in unread:
        with pytest.raises(SystemExit) as exc:
            main([command, option, OPTION_VALUES[option]])
        assert exc.value.code == 2, option
        assert "unrecognized arguments" in capsys.readouterr().err


def test_settable_option_count():
    assert sum(len(options) for options in ACCEPTED_OPTIONS.values()) == 15


def test_config_block_echoes_run_config_defaults(capsys):
    from dataclasses import asdict

    _, out, _ = run_cli(capsys, "closure", "--format", "json")
    expected = RunConfig(generator_set="minimal", output_format="json")
    assert json.loads(out)["config"] == asdict(expected)
    _, out, _ = run_cli(capsys, "structure", "--format", "json")
    assert json.loads(out)["config"] == asdict(RunConfig(output_format="json"))


def test_batched_json_output_equals_one_dump(capsys):
    # spectrum at dim 3000 encodes to far more than one batch of chunks
    code, out, _ = run_cli(capsys, "spectrum", "--dim", "3000", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _BoundedStdout(io.StringIO):
    """A stdout that fails the run once more than `limit` characters arrive,
    so a writer that repeats its output stops instead of filling memory."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def write(self, text: str) -> int:
        if self.tell() + len(text) > self.limit:
            raise AssertionError(f"more than {self.limit} characters written")
        return super().write(text)


def test_text_output_is_written_once(monkeypatch):
    run, *rest = cli.COMMANDS["orbit"]
    rendered = []

    def recording(config):
        payload, render, status = run(config)
        return payload, lambda: rendered.append(render()) or rendered[0], status

    monkeypatch.setitem(cli.COMMANDS, "orbit", (recording, *rest))
    stdout = _BoundedStdout(limit=1 << 20)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["orbit", "--dim", "64"]) == 0
    # orbit renders a list of lines
    assert stdout.getvalue() == "\n".join(rendered[0]) + "\n"


def _package_env() -> dict[str, str]:
    """The environment with this package first on PYTHONPATH, for a child python."""
    src = str(Path(oscalgebra.__file__).parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def _run_with_closed_stdout(*args: str) -> tuple[int, bytes]:
    """Run python with the package on its path and the read end of its stdout
    pipe closed at once; returns (exit status, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_package_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    return proc.returncode, err


def test_closed_stdout_pipe_exits_without_traceback():
    # well over one pipe buffer, so the write fails even if it starts early
    code, err = _run_with_closed_stdout(
        "-m", "oscalgebra", "spectrum", "--dim", "2000", "--format", "json"
    )
    assert code == 1
    assert b"Traceback" not in err
    assert err == b""


def test_full_verification_script_closed_pipe_exits_without_traceback():
    script = Path(__file__).parents[1] / "scripts" / "run_full_verification.py"
    code, err = _run_with_closed_stdout(str(script), "--dim", "64")
    assert code == 1
    assert err == b""


@pytest.mark.parametrize("command", ACCEPTED_OPTIONS)
def test_text_is_rendered_only_for_text_format(command, monkeypatch):
    run, *rest = cli.COMMANDS[command]
    renders = []

    def counting(config):
        payload, render, status = run(config)
        return payload, lambda: renders.append(command) or render(), status

    monkeypatch.setitem(cli.COMMANDS, command, (counting, *rest))
    argv = [command, "--dim", "16"] if "--dim" in ACCEPTED_OPTIONS[command] else [command]
    for fmt, expected in (("json", 0), ("text", 1)):
        assert main([*argv, "--format", fmt]) == 0
        assert len(renders) == expected


def _run_fresh(*argv: str) -> tuple[int, str, str]:
    """One CLI call in a new interpreter: (exit status, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "oscalgebra", *argv],
        capture_output=True, text=True, env=_package_env(), timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_a_sequence_of_calls_like_fresh_processes(capsys):
    sequence = (
        ("verify", "--max-dim", "4"),  # an option verify does not read: exit 2
        ("verify", "--dim", "64", "--format", "json"),
        ("closure", "--set", "so21"),
    )
    in_process = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    assert cli.build_parser.cache_info().currsize == 1
    assert cli.build_parser() is cli.build_parser()
    assert in_process == [_run_fresh(*argv) for argv in sequence]


def test_plain_argv_builds_no_parser():
    # a fresh interpreter, so no earlier call has built the parser
    script = (
        "import contextlib, io\n"
        "from oscalgebra import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['verify', '--dim', '64', '--format', 'json'])\n"
        "print(status, cli.build_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=_package_env(), timeout=300,
    )
    assert (proc.stdout, proc.stderr) == ("0 0\n", "")


# -- the table path against argparse ---------------------------------------------------

ARGV_TOKENS = (*cli.COMMANDS, *cli.OPTIONS, "--dim=8", "--fo", "-h", "--help", "--version")
ARGV_VALUES = ("64", "-3", "1_0", " 7", "0.5", "nan", "json", "text", "bogus", "graded", "")


def _argparse_args(argv: list[str]) -> dict | None:
    """``vars(parse_args(argv))``, or None where argparse exits; its output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _reprs(args: dict) -> dict[str, str]:
    # repr tells 10 from 10.0 and makes nan equal to nan
    return {key: repr(value) for key, value in args.items()}


_tokens = st.sampled_from(ARGV_TOKENS + ARGV_VALUES)


@st.composite
def _near_plain_argvs(draw):
    """A command, up to three option-value pairs (the command's own options
    drawn often) and at times one stray token."""
    command = draw(st.sampled_from(tuple(cli.COMMANDS)))
    options = st.one_of(st.sampled_from(cli.COMMANDS[command][2]), st.sampled_from(ARGV_TOKENS))
    values = st.one_of(st.sampled_from(ARGV_VALUES), _tokens)
    argv = [command]
    for _ in range(draw(st.integers(0, 3))):
        argv += [draw(options), draw(values)]
    return argv + draw(st.lists(_tokens, max_size=1))


@given(st.one_of(st.lists(_tokens, max_size=7), _near_plain_argvs()))
@example(["orbit", "--set", "--dim", "--dim", "64"])  # argparse: --set expected one argument
@example(["closure", "--set", "-h"])  # argparse prints help
def test_table_path_agrees_with_argparse(argv):
    plain = cli._parse_plain(argv)
    if plain is not None:
        parsed = _argparse_args(argv)
        assert parsed is not None, argv
        assert _reprs(plain) == _reprs(parsed), argv


@functools.cache
def _argparse_accepts(command: str, option: str, value: str) -> bool:
    return _argparse_args([command, option, value]) is not None


@given(st.data())
def test_own_options_with_valid_values_take_the_table_path(data):
    command = data.draw(st.sampled_from(tuple(cli.COMMANDS)))
    argv = [command]
    for option in data.draw(st.lists(st.sampled_from(cli.COMMANDS[command][2]), max_size=5)):
        candidates = (*ARGV_VALUES, *cli.OPTIONS[option][1].get("choices", ()))
        valid = [v for v in candidates if not v.startswith("-") and _argparse_accepts(command, option, v)]
        argv += [option, data.draw(st.sampled_from(valid))]
    plain = cli._parse_plain(argv)
    assert plain is not None, argv
    assert _reprs(plain) == _reprs(_argparse_args(argv))
