"""The three benchmark workloads: what one op is and how its output is checked.

Each workload reads the inputs its set-up step wrote, runs op ``i`` through
framesense's public API or CLI, and checks the op's output. Ops look up
package functions through their modules at call time so that a
:class:`spans.Tracer` installed around them sees every layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import threading

import numpy as np

import checks
import params

# A place op that has not finished by then is killed and counted as failed.
PLACE_TIMEOUT_S = 120


class _Experiment:
    """Shared shape of the in-process ``sweep`` and ``audit`` workloads."""

    name = ""

    def __init__(self, fs, workdir, seed):
        self.fs = fs
        self.seed = seed
        self.base = json.loads((workdir / "config.json").read_text(encoding="ascii"))
        self.prefix = str(workdir / self.name)

    def op(self, i):
        cfg = self.fs.ExperimentConfig(**self.base, master_seed=params.op_seed(self.name, self.seed, i))
        table = self.experiment(cfg)
        return cfg, table, table.write(self.prefix)

    replay = op

    def check(self, i, result):
        cfg, table, paths = result
        return self.check_outputs(self.fs, table, paths, cfg)

    def setup_replay(self):
        """The set-up writes only a config, which touches no traced layer."""

    @staticmethod
    def ref_index(i):
        return i


class Sweep(_Experiment):
    """One trial of the default ``sweep_mse`` config plus its CSV writes."""

    name = "sweep"
    check_outputs = staticmethod(checks.check_sweep)

    def experiment(self, cfg):
        return self.fs.harness.sweep_mse(cfg)


class Audit(_Experiment):
    """One certified ``oracle_audit`` instance plus its CSV writes."""

    name = "audit"
    check_outputs = staticmethod(checks.check_audit)

    def experiment(self, cfg):
        return self.fs.harness.oracle_audit(cfg)


class Place:
    """One ``python -m framesense place`` process on the set-up matrix."""

    name = "place"

    def __init__(self, fs, workdir, seed):
        self.fs = fs
        self.workdir = workdir
        self.seed = seed
        self.csv = workdir / "matrix.csv"
        self.argv = ["place", "--matrix", str(self.csv), "--sensors", str(params.PLACE_SENSORS)]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(params.SRC), os.environ.get("PYTHONPATH")) if p
        ))
        # Read with numpy, not framesense.matio, so the check does not
        # depend on the reader under test.
        self.entries = np.loadtxt(self.csv, delimiter=",", ndmin=2)
        self.expected = sorted(fs.placement.framesense(self.entries, params.PLACE_SENSORS).chosen)
        self.first_output = None
        self.child_rss_mib = []

    def op(self, i):
        """Run the CLI in a child process; record its peak RSS."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "framesense", *self.argv],
            cwd=params.ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(PLACE_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
        if proc.returncode != 0:
            raise RuntimeError(f"place exited with {proc.returncode}: {out[-500:]!r}")
        self.child_rss_mib.append(usage.ru_maxrss / 1024.0)
        return out.decode("ascii")

    def replay(self, i):
        """The same argv through ``framesense.cli.main`` in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.fs.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return buf.getvalue()

    def setup_replay(self):
        spec = self.fs.GeneratorSpec(
            "gaussian", n=params.PLACE_N, k=params.PLACE_K, seed=params.op_seed("place", self.seed, 0)
        )
        self.fs.matio.save_matrix(self.workdir / "replay.csv", self.fs.matgen.generate(spec))

    @staticmethod
    def ref_index(i):
        return 0

    def check(self, i, text):
        errors, fingerprint = checks.check_place(text, self.entries, self.expected, params.PLACE_SENSORS)
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            errors.append("place: output differs from the first run on the same input")
        return errors, fingerprint


WORKLOADS = {"sweep": Sweep, "place": Place, "audit": Audit}
