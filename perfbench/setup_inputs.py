"""Set-up step of one benchmark run, executed in a fresh interpreter.

    python3 perfbench/setup_inputs.py WORKLOAD SEED OUTDIR

Imports framesense, generates the workload's inputs from SEED and writes
them to OUTDIR: the base experiment config for ``sweep`` and ``audit``, the
candidate matrix CSV for ``place``. ``run.py`` times this whole process,
interpreter start included, as the run's set-up time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import params


def main(argv) -> int:
    workload, seed, outdir = argv[1], int(argv[2]), Path(argv[3])
    sys.path.insert(0, str(params.SRC))
    import framesense

    if workload == "place":
        spec = framesense.GeneratorSpec(
            "gaussian", n=params.PLACE_N, k=params.PLACE_K, seed=params.op_seed("place", seed, 0)
        )
        framesense.save_matrix(outdir / "matrix.csv", framesense.generate(spec))
    else:
        base = params.SWEEP_CONFIG if workload == "sweep" else params.AUDIT_CONFIG
        cfg = dict(base, master_seed=params.op_seed(workload, seed, 0))
        framesense.ExperimentConfig(**cfg)  # reject a bad config at set-up, not mid-run
        (outdir / "config.json").write_text(json.dumps(base), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
