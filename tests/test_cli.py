"""Command line interface, exercised through real subprocesses."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framesense import generate, GeneratorSpec, load_matrix, save_matrix


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "framesense", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def write_cfg(tmp_path, name="cfg.json", **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(kwargs))
    return str(path)


class TestPlace:
    def test_generated_matrix(self):
        proc = run_cli("place", "--gen", "gaussian", "--n", "8", "--k", "3", "--sensors", "4")
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("chosen: ")
        picks = [int(x) for x in lines[0].split()[1:]]
        assert len(picks) == 4
        # locations are reported 1-based in ascending order
        assert all(1 <= p <= 8 for p in picks)
        assert picks == sorted(picks)
        assert lines[1].startswith("fp: ")
        assert lines[2].startswith("mse: ")
        float(lines[1].split()[1])
        float(lines[2].split()[1])

    def test_matrix_file(self, tmp_path):
        psi = np.array([
            [0.0, 1.0],
            [-np.sqrt(3) / 2, -0.5],
            [np.sqrt(3) / 2, -0.5],
            [0.0, 1.0],
        ])
        path = tmp_path / "mb.csv"
        save_matrix(path, psi)
        proc = run_cli("place", "--matrix", str(path), "--sensors", "2")
        assert proc.stdout.splitlines()[0] == "chosen: 2 3"

    def test_rerun_is_identical(self):
        args = ("place", "--gen", "bernoulli", "--n", "10", "--k", "3",
                "--sensors", "5", "--algo", "det", "--seed", "3")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_bad_sensor_count_exits_2(self):
        proc = run_cli("place", "--gen", "gaussian", "--n", "8", "--k", "3",
                       "--sensors", "7", check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_missing_matrix_file_exits_2(self):
        proc = run_cli("place", "--matrix", "/no/such/file.csv", "--sensors", "2",
                       check=False)
        assert proc.returncode == 2

    def test_gen_requires_dimensions(self):
        proc = run_cli("place", "--gen", "gaussian", "--sensors", "2", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag", [("--n", "4"), ("--k", "2"), ("--scale", "2")])
    def test_matrix_rejects_generator_flags(self, tmp_path, flag):
        path = tmp_path / "m.csv"
        save_matrix(path, np.eye(4, 2))
        proc = run_cli("place", "--matrix", str(path), "--sensors", "2", *flag, check=False)
        assert proc.returncode == 2
        assert flag[0] in proc.stderr


class TestSweepMseCommand:
    def test_writes_three_files(self, tmp_path):
        cfg = write_cfg(tmp_path, family="gaussian", n=9, k=3, l_values=[3, 5],
                        trials=2, algorithms=["framesense", "random"])
        proc = run_cli("sweep-mse", "--config", cfg, "--out", str(tmp_path / "run"))
        assert proc.stdout.count("wrote ") == 3
        raw = (tmp_path / "run_raw.csv").read_text().splitlines()
        assert raw[0].startswith("family,N,K,L,algorithm")
        assert len(raw) == 1 + 2 * 2 * 2
        assert (tmp_path / "run_agg.csv").exists()
        assert "gnuplot" in (tmp_path / "run_plot").read_text()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, n=9, k=3, sensors=[3])
        proc = run_cli("sweep-mse", "--config", cfg, "--out", str(tmp_path / "x"),
                       check=False)
        assert proc.returncode == 2
        assert "sensors" in proc.stderr


class TestSweepTimeCommand:
    def test_runs_small_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, family="gaussian", n_values=[8, 12], k=3,
                        trials=1, algorithms=["framesense", "random"])
        run_cli("sweep-time", "--config", cfg, "--out", str(tmp_path / "t"))
        raw = (tmp_path / "t_raw.csv").read_text().splitlines()
        ls = {line.split(",")[3] for line in raw[1:]}
        assert ls == {"4", "6"}

    def test_rejects_matrix_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, n_values=[8], k=3, trials=1, matrix_csv="m.csv")
        proc = run_cli("sweep-time", "--config", cfg, "--out", str(tmp_path / "t"),
                       check=False)
        assert proc.returncode == 2
        assert "matrix_csv" in proc.stderr
        assert not (tmp_path / "t_raw.csv").exists()


class TestAuditCommand:
    def test_audit_summary_line(self, tmp_path):
        cfg = write_cfg(tmp_path, family="gaussian", n=8, k=3, l_values=[4],
                        trials=3, normalize_rows=False)
        proc = run_cli("audit", "--config", cfg, "--out", str(tmp_path / "a"))
        assert "audited 3/3 instances" in proc.stdout
        assert "fp pass 3" in proc.stdout
        raw = (tmp_path / "a_raw.csv").read_text().splitlines()
        assert len(raw) == 4

    def test_rejects_matrix_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(path, generate(GeneratorSpec("bernoulli", 8, 3, seed=2)))
        cfg = write_cfg(tmp_path, n=8, k=3, l_values=[4], trials=1, matrix_csv=str(path))
        proc = run_cli("audit", "--config", cfg, "--out", str(tmp_path / "a"), check=False)
        assert proc.returncode == 2
        assert "matrix_csv" in proc.stderr
        assert not (tmp_path / "a_raw.csv").exists()


class TestMatgenCommand:
    def test_writes_loadable_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, family="bernoulli", n=6, k=4, master_seed=11)
        run_cli("matgen", "--config", cfg, "--out", str(tmp_path / "mat"))
        got = load_matrix(tmp_path / "mat.csv")
        want = generate(GeneratorSpec("bernoulli", 6, 4, seed=11)).entries
        assert np.array_equal(got, want)

    def test_rejects_matrix_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, family="bernoulli", n=6, k=4, matrix_csv="m.csv")
        proc = run_cli("matgen", "--config", cfg, "--out", str(tmp_path / "mat"),
                       check=False)
        assert proc.returncode == 2
        assert "matrix_csv" in proc.stderr

    def test_rejects_multiple_families(self, tmp_path):
        cfg = write_cfg(tmp_path, family=["gaussian", "bernoulli"], n=6, k=2)
        proc = run_cli("matgen", "--config", cfg, "--out", str(tmp_path / "m"),
                       check=False)
        assert proc.returncode == 2


def _declared_entry_point():
    """``(module, attr)`` of ``[project.scripts].framesense`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["framesense"]
    module, _, attr = target.partition(":")
    return module.strip(), attr.strip()


def test_console_script_entry_point():
    # An installed script is checked where there is one; a crash fails. It
    # goes first so that the tomli skip on Python 3.10 below cannot hide it.
    script = shutil.which("framesense")
    if script is not None:
        proc = subprocess.run([script, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "place" in proc.stdout

    # The declared entry point is checked on every run, called the way the
    # generated wrapper calls it, so no install is needed.
    module, attr = _declared_entry_point()
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "place" in proc.stdout
