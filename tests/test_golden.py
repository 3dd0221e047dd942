"""Byte-for-byte guard on the sweep and audit CSVs.

The files under ``tests/data`` hold the output of a one-trial default
``sweep_mse`` and of the benchmark's audit config at ``master_seed=0``.
Wall-time columns are stripped, since they differ between runs. A refactor
that must not change results keeps these bytes. Regenerate them only for a
deliberate change of output, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from framesense import ExperimentConfig, oracle_audit, sweep_mse

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
TIMED_COLUMNS = {"wall_time_seconds", "time_mean", "time_std"}


def _strip_timed(text):
    lines = text.splitlines()
    keep = [i for i, name in enumerate(lines[0].split(",")) if name not in TIMED_COLUMNS]
    return "".join(",".join(line.split(",")[i] for i in keep) + "\n" for line in lines)


def golden_outputs(workdir):
    """File name -> text of every golden output, computed now."""
    out = {}
    for name, run, cfg in (
        ("sweep", sweep_mse, SWEEP_CONFIG),
        ("audit", oracle_audit, AUDIT_CONFIG),
    ):
        for path in run(ExperimentConfig(**cfg)).write(Path(workdir) / name):
            if path.endswith(".csv"):
                text = Path(path).read_text(encoding="ascii")
                out[Path(path).name] = _strip_timed(text)
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "name", ["sweep_raw.csv", "sweep_agg.csv", "audit_raw.csv", "audit_agg.csv"]
)
def test_output_matches_golden_bytes(outputs, name):
    assert outputs[name].encode("ascii") == (DATA / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in golden_outputs(tmp).items():
            (DATA / name).write_bytes(text.encode("ascii"))
            print(DATA / name)
