"""Command line interface, exercised through real subprocesses."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framesense import FAMILIES, generate, GeneratorSpec, load_matrix, save_matrix


def run_cli(*args, check=True, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "framesense", *args],
        capture_output=True,
        text=True,
        env=env,
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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_output_bytes_identical_under_one_and_two_blas_threads(self, family):
        # 300 x 10 puts framesense's block products on shapes where threaded
        # OpenBLAS splits the work
        args = ["place", "--gen", family, "--n", "300", "--k", "10", "--sensors", "150"]
        if family == "stacked_scaled":
            args += ["--scale", "4"]
        outs = [
            run_cli(*args, env=dict(os.environ, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t)).stdout
            for t in ("1", "2")
        ]
        assert outs[0] == outs[1]

    def test_bad_sensor_count_exits_2(self):
        proc = run_cli("place", "--gen", "gaussian", "--n", "8", "--k", "3",
                       "--sensors", "7", check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_overflowing_unnormalized_matrix_exits_2(self, tmp_path):
        path = tmp_path / "huge.csv"
        save_matrix(path, np.random.default_rng(48).normal(size=(8, 3)) * 1e100)
        proc = run_cli("place", "--matrix", str(path), "--sensors", "4", "--no-normalize",
                       check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: frame potential of the rows overflows")

    def test_overflowing_row_norm_exits_2(self, tmp_path):
        # the default run normalizes rows, whose squared entries overflow here
        path = tmp_path / "huge.csv"
        save_matrix(path, np.random.default_rng(48).normal(size=(8, 3)) * 1e160)
        proc = run_cli("place", "--matrix", str(path), "--sensors", "4", check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: row 0 has norm inf, too large to normalize")

    @pytest.mark.parametrize("algo", ["mi", "det", "mse"])
    def test_overflowing_ridge_exits_2(self, tmp_path, algo):
        path = tmp_path / "huge.csv"
        save_matrix(path, np.random.default_rng(48).normal(size=(8, 3)) * 1e160)
        proc = run_cli("place", "--matrix", str(path), "--sensors", "4", "--algo", algo,
                       check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "ridge 1e-6 * mean squared row norm overflows float64" in proc.stderr

    @pytest.mark.parametrize("algo", ["det", "mse"])
    def test_all_zero_matrix_exits_2(self, tmp_path, algo):
        path = tmp_path / "zero.csv"
        save_matrix(path, np.zeros((8, 3)))
        proc = run_cli("place", "--matrix", str(path), "--sensors", "4", "--algo", algo,
                       check=False)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {algo} needs a matrix with a nonzero entry")

    def test_convergence_failure_exits_2(self, monkeypatch, capsys):
        from framesense import cli
        from framesense.linalg import ConvergenceError

        def fail(*args):
            raise ConvergenceError("eigenvalue computation did not converge")

        monkeypatch.setattr(cli, "run_placement", fail)
        argv = ["place", "--gen", "gaussian", "--n", "8", "--k", "3", "--sensors", "4"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: eigenvalue computation did not converge\n"

    def test_eigen_failure_in_det_exits_2(self, monkeypatch, capsys):
        from framesense import cli

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        argv = ["place", "--gen", "gaussian", "--n", "8", "--k", "3", "--sensors", "4",
                "--algo", "det"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: eigenvalue computation did not converge")

    def test_matrix_from_stdin(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(path, generate(GeneratorSpec("gaussian", 12, 3, seed=5)))
        want = run_cli("place", "--matrix", str(path), "--sensors", "5").stdout
        proc = subprocess.run(
            [sys.executable, "-m", "framesense", "place", "--matrix", "/dev/stdin", "--sensors", "5"],
            input=path.read_text(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want

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

    @pytest.mark.parametrize("bad", [
        {"trials": 2.5},
        {"trials": "3"},
        {"trials": True},
        {"n": 100.5},
        {"l_values": 30},
        {"l_values": [30.7]},
        {"l_values": []},
        {"family": 5},
        {"family": []},
        {"scale": "4", "family": "stacked_scaled"},
        {"algorithms": "framesense"},
        {"normalize_rows": "no"},
        {"matrix_csv": 5},
    ])
    def test_malformed_config_value_exits_2(self, tmp_path, bad):
        # each used to crash with a TypeError, run a changed value, write
        # header-only files or, for matrix_csv, read file descriptor 5
        cfg = write_cfg(tmp_path, **{"n": 100, "k": 30, "l_values": [30], "trials": 1, **bad})
        proc = run_cli("sweep-mse", "--config", cfg, "--out", str(tmp_path / "x"),
                       check=False)
        assert proc.returncode == 2, proc.stderr
        assert next(iter(bad)) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x_raw.csv").exists()


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


    @pytest.mark.parametrize("command", ["sweep-time", "audit"])
    def test_threads_flag_refused(self, tmp_path, command):
        # only sweep-mse runs its trials on worker threads
        cfg = write_cfg(tmp_path, n=8, k=3, n_values=[8], l_values=[4], trials=1)
        proc = run_cli(command, "--config", cfg, "--out", str(tmp_path / "t"),
                       "--threads", "2", check=False)
        assert proc.returncode == 2
        assert "unrecognized arguments: --threads 2" in proc.stderr
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

    def test_scale_reaches_stacked_scaled(self, tmp_path):
        cfg = write_cfg(tmp_path, family="stacked_scaled", n=6, k=2, scale=3.0, master_seed=5)
        run_cli("matgen", "--config", cfg, "--out", str(tmp_path / "mat"))
        want = generate(GeneratorSpec("stacked_scaled", 6, 2, seed=5, scale=3.0)).entries
        assert np.array_equal(load_matrix(tmp_path / "mat.csv"), want)

    def test_rejects_unused_scale(self, tmp_path):
        cfg = write_cfg(tmp_path, family="gaussian", n=6, k=2, scale=3.0)
        proc = run_cli("matgen", "--config", cfg, "--out", str(tmp_path / "mat"),
                       check=False)
        assert proc.returncode == 2
        assert "scale only applies to stacked_scaled" in proc.stderr
        assert not (tmp_path / "mat.csv").exists()

    def test_rejects_multiple_families(self, tmp_path):
        cfg = write_cfg(tmp_path, family=["gaussian", "bernoulli"], n=6, k=2)
        proc = run_cli("matgen", "--config", cfg, "--out", str(tmp_path / "m"),
                       check=False)
        assert proc.returncode == 2

    def test_rejects_threads(self, tmp_path):
        # matgen writes one matrix and has no workers to run
        cfg = write_cfg(tmp_path, family="gaussian", n=6, k=2, threads=2)
        proc = run_cli("matgen", "--config", cfg, "--out", str(tmp_path / "m"),
                       check=False)
        assert proc.returncode == 2
        assert "threads applies to sweep-mse only, not to matgen" in proc.stderr
        assert not (tmp_path / "m.csv").exists()


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
