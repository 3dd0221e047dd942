"""Byte-for-byte guard on the sweep and audit outputs.

The files under ``tests/data`` hold, at ``master_seed=0``:

- the raw and aggregate CSVs and the gnuplot script of a one-trial default
  ``sweep_mse`` (the script's MSE data lines carry no wall time);
- the CSVs of the benchmark's audit config;
- the CSVs of an audit whose second cell exceeds the enumeration guard,
  which covers its ``nan`` optima, delta and eta, its empty gamma flag, the
  certificates it still reports and the status text;
- ``BoundsReport.to_text()`` of one fixed instance.

Wall-time columns are stripped, since they differ between runs. A refactor
that must not change results keeps these bytes. Regenerate them only for a
deliberate change of output, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from framesense import (
    ExperimentConfig,
    GeneratorSpec,
    compute_bounds_report,
    framesense,
    generate,
    oracle_audit,
    sweep_mse,
)

DATA = Path(__file__).resolve().parent / "data"

SWEEP_CONFIG = {"trials": 1}
AUDIT_CONFIG = {
    "family": "gaussian",
    "n": 12,
    "k": 3,
    "l_values": [4, 6],
    "trials": 1,
    "threads": 1,
    "normalize_rows": False,
    "master_seed": 0,
}
# C(30, 15) is over the enumeration guard, so the L = 15 cell is skipped
AUDIT_SKIP_CONFIG = dict(AUDIT_CONFIG, n=30, l_values=[3, 15])
TIMED_COLUMNS = {"wall_time_seconds", "time_mean", "time_std"}
NAMES = [
    "sweep_raw.csv",
    "sweep_agg.csv",
    "sweep_plot",
    "audit_raw.csv",
    "audit_agg.csv",
    "audit_skip_raw.csv",
    "audit_skip_agg.csv",
    "bounds_report.txt",
]


def _strip_timed(text):
    lines = text.splitlines()
    keep = [i for i, name in enumerate(lines[0].split(",")) if name not in TIMED_COLUMNS]
    return "".join(",".join(line.split(",")[i] for i in keep) + "\n" for line in lines)


def _bounds_text():
    matrix = generate(GeneratorSpec("gaussian", 12, 3, seed=0))
    chosen = framesense(matrix, 4).chosen
    return compute_bounds_report(matrix, 4, chosen).to_text()


def golden_outputs(workdir):
    """File name -> text of every golden output, computed now."""
    out = {}
    for name, run, cfg in (
        ("sweep", sweep_mse, SWEEP_CONFIG),
        ("audit", oracle_audit, AUDIT_CONFIG),
        ("audit_skip", oracle_audit, AUDIT_SKIP_CONFIG),
    ):
        for path in run(ExperimentConfig(**cfg)).write(Path(workdir) / name):
            text = Path(path).read_text(encoding="ascii")
            if path.endswith(".csv"):
                text = _strip_timed(text)
            out[Path(path).name] = text
    out["bounds_report.txt"] = _bounds_text()
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_every_output_is_guarded(outputs):
    assert sorted(outputs) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden_bytes(outputs, name):
    assert outputs[name].encode("ascii") == (DATA / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in golden_outputs(tmp).items():
            (DATA / name).write_bytes(text.encode("ascii"))
            print(DATA / name)
