"""Workload parameters shared by the benchmark driver and its set-up step.

Everything a run feeds the program is derived here from the workload seed,
so the same seed always yields the same inputs, and the program itself
only ever sees the derived configs and matrices.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("sweep", "place", "audit")

# sweep: one trial of the default ExperimentConfig (gaussian N=100, K=30,
# L = 30..60 step 5, framesense/det/mse/random, 28 cells) per op.
SWEEP_CONFIG = {"trials": 1, "threads": 1}

# audit: one certified oracle_audit instance per op. normalize_rows=False is
# the mode the gamma certificate covers.
AUDIT_CONFIG = {
    "family": "gaussian",
    "n": 12,
    "k": 3,
    "l_values": [4, 6],
    "trials": 1,
    "threads": 1,
    "normalize_rows": False,
}

# place: one `framesense place` process on a gaussian matrix written at set-up.
PLACE_N = 2000
PLACE_K = 30
PLACE_SENSORS = 1000

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads() -> None:
    """Cap numpy/BLAS threads at the CPUs this process may use.

    Must run before numpy is imported; child processes inherit the cap.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def op_seed(workload: str, seed: int, index: int) -> int:
    """64-bit input seed of op ``index`` in a run of ``workload`` at ``seed``."""
    digest = hashlib.sha256(f"perfbench/{workload}/{seed}/{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")
