"""The benchmark's workloads: each turns a seeded random stream into jobs.

A job is what one fresh child process runs: either a list of CLI argument
vectors, run one after another through `oscalgebra.cli.main`, or a list of
`close_under_bracket` calls, which the CLI cannot express.  The seed picks
orbit start states and the order of the suite commands.
`verify_dim1024` and `closure_highdeg` take no input beyond their fixed
sizes and seeds, so the seed leaves their jobs unchanged.
"""

from __future__ import annotations

import random

STATES_DIM = 3000
SUITE_DIM = 64
# Every generator set used below has degree at most 2, so the orbit trusted
# window is at least dim - 4 and every start state below it is valid.
MAX_DEGREE = 2


def _start(rng: random.Random, dim: int) -> str:
    return str(rng.randrange(dim - 2 * MAX_DEGREE))


def _json(*argv: str) -> list[str]:
    return [*argv, "--format", "json"]


def verify_dim1024(rng: random.Random) -> dict:
    return {"kind": "cli", "commands": [_json("verify", "--dim", "1024")]}


def closure_highdeg(rng: random.Random) -> dict:
    # {a†³, a³} grows without bound and overflows at 24 elements; {a†¹⁶, a}
    # closes to 18 elements in 17 sweeps.  Together they pin down both
    # answers of the span test.
    return {
        "kind": "closure",
        "calls": [
            {"seed": [[3, 0], [0, 3]], "mode": "graded", "max_dim": 24},
            {"seed": [[16, 0], [0, 1]], "mode": "commutator-only", "max_dim": 24},
        ],
    }


def states_dim3000(rng: random.Random) -> dict:
    dim = str(STATES_DIM)
    return {
        "kind": "cli",
        "commands": [
            _json("orbit", "--set", "osp", "--seed", _start(rng, STATES_DIM), "--dim", dim),
            _json("orbit", "--set", "so21", "--seed", _start(rng, STATES_DIM), "--dim", dim),
            _json("spectrum", "--dim", dim),
        ],
    }


def suite_dim64(rng: random.Random) -> dict:
    """The commands of scripts/run_full_verification.py at dim 64."""
    dim = str(SUITE_DIM)
    commands = [
        _json("verify", "--dim", dim),
        _json("closure", "--set", "minimal", "--mode", "graded"),
        _json("closure", "--set", "minimal", "--mode", "commutator-only"),
        _json("closure", "--set", "Q,Qdag", "--mode", "graded"),
        _json("closure", "--set", "so21", "--mode", "graded"),
        _json("orbit", "--set", "so21", "--seed", _start(rng, SUITE_DIM), "--dim", dim),
        _json("orbit", "--set", "so21", "--seed", _start(rng, SUITE_DIM), "--dim", dim),
        _json("orbit", "--set", "osp", "--seed", _start(rng, SUITE_DIM), "--dim", dim),
        _json("orbit", "--set", "Q,Qdag", "--seed", _start(rng, SUITE_DIM), "--dim", dim),
        _json("structure"),
        _json("spectrum", "--dim", "8"),
    ]
    rng.shuffle(commands)
    return {"kind": "cli", "commands": commands}


WORKLOADS = {
    "verify_dim1024": verify_dim1024,
    "closure_highdeg": closure_highdeg,
    "states_dim3000": states_dim3000,
    "suite_dim64": suite_dim64,
}


def jobs(workload: str, seed: int):
    """Endless, reproducible stream of jobs for one workload and seed."""
    make = WORKLOADS[workload]
    rng = random.Random(seed)
    while True:
        yield make(rng)
