#!/usr/bin/env python3
"""Run every analysis in one go: verification suite, all four closure
scenarios, the orbit structure of each generator set, the structure-constant
table and a short spectrum table.  Exit status is nonzero if anything fails.

Usage:  python scripts/run_full_verification.py [--dim N] [--format text|json]
"""

import argparse
import contextlib
import io
import os
import sys

from oscalgebra.cli import main as cli_main


def run(argv: list[str]) -> int:
    print(f"\n==> oscalgebra {' '.join(argv)}")
    # capture the command's output and write it here, so a closed stdout pipe
    # raises in this script instead of being absorbed by the command
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = cli_main(argv)
    sys.stdout.write(captured.getvalue())
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args()
    dim = str(args.dim)
    fmt = args.format

    commands = [
        ["verify", "--dim", dim, "--format", fmt],
        ["closure", "--set", "minimal", "--mode", "graded", "--format", fmt],
        ["closure", "--set", "minimal", "--mode", "commutator-only", "--format", fmt],
        ["closure", "--set", "Q,Qdag", "--mode", "graded", "--format", fmt],
        ["closure", "--set", "so21", "--mode", "graded", "--format", fmt],
        ["orbit", "--set", "so21", "--seed", "0", "--dim", dim, "--format", fmt],
        ["orbit", "--set", "so21", "--seed", "3", "--dim", dim, "--format", fmt],
        ["orbit", "--set", "osp", "--seed", "7", "--dim", dim, "--format", fmt],
        ["orbit", "--set", "Q,Qdag", "--seed", "0", "--dim", dim, "--format", fmt],
        ["structure", "--format", fmt],
        ["spectrum", "--dim", "8", "--format", fmt],
    ]
    failures = [argv for argv in commands if run(argv) != 0]
    if failures:
        print(f"\n{len(failures)} command(s) failed:", file=sys.stderr)
        for argv in failures:
            print("  " + " ".join(argv), file=sys.stderr)
        return 1
    print("\nall analyses completed")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so the final
        # flush at exit cannot fail again (Python's documented SIGPIPE pattern)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
