"""framesense benchmark: timed end-to-end workloads and a traced run per layer.

    python3 perfbench/run.py --workload {sweep,place,audit} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --record

Run from the repository root; framesense is imported from ``src/``. Each
workload is a closed loop with one client: the next op starts when the
previous one ends. Inputs are derived from ``--seed`` by ``params.py``.
There is no warm-up op: the set-up has already imported the package once,
and ops take tenths of a second or more, so first-call costs are a small
share of one op and do not move the median.

``--trace 0`` times ops untraced and reports the end-to-end metrics. Their
times are in reference seconds: each op's and set-up's wall time is scaled
by the speed of a fixed calibration kernel timed around it
(``calibrate.py``), because the shared host's speed drifts by a quarter or
more between runs; the wall-clock figures are printed beside them.
``--trace 1`` wraps the package's public functions (see ``spans.py``),
reports the per-layer metrics and writes every span as JSON lines under
``.perfbench_work/``. Per-layer figures are per op; spans of the set-up,
replayed once under the tracer, count once. Metric names and units come
from ``BENCHMARK.json``. Every op's output is checked (``checks.py``); a
wrong output counts as a failed op. Ops of the seeds recorded in ``references.json`` (the default
seed and a hold-out seed) must also match the recorded outputs; ``--record``
rewrites that file from the current code.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, the error rate and the
environment of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import params

params.limit_threads()  # before numpy is first imported, here or in a child

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = params.ROOT / ".perfbench_work"
REFERENCES = params.BENCH_DIR / "references.json"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
CHILD_WALL_REPEATS = 5
REFERENCE_OPS = {"sweep": 12, "audit": 48, "place": 1}
DEFAULT_SEED = 0
HOLDOUT_SEED = 9973

# Per-layer metrics that follow from argument sizes, not from measurement.
COMPUTED = (
    "placement.framesense.table_mib",
    "placement.exhaustive_oracle.subsets",
    "bounds.delta_bound.subsets",
    "linalg.sym_eigenvalues.order_mean",
)

# Per workload, the spans that should take most of the op time.
DOMINANT = {
    "sweep": ("linalg.mse", "placement.greedy_det", "placement.greedy_mse"),
    "audit": ("placement.exhaustive_oracle", "bounds.delta_bound"),
    "place": ("placement.framesense", "matio.load_matrix"),
}


def import_program():
    """framesense from this checkout's ``src/``, never an installed copy."""
    sys.path.insert(0, str(params.SRC))
    import framesense
    import framesense.cli  # noqa: F401  (traced; not imported by the package)

    if os.path.dirname(os.path.abspath(framesense.__file__)) != str(params.SRC / "framesense"):
        raise ImportError(f"framesense imported from {framesense.__file__}, not {params.SRC}")
    return framesense


def environment(fs) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (params.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=params.ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((params.SRC / "framesense").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "framesense": fs.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": params.nproc(),
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in params.THREAD_VARS},
    }


def run_child(argv) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=params.ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.stdout


def run_setups(workload, seed, workdir, repeats) -> tuple[list, list]:
    """Set-ups in fresh interpreters; their wall and reference-second times."""
    script = str(params.BENCH_DIR / "setup_inputs.py")
    walls, scaled = [], []
    before = calibrate.kernel_seconds()
    for _ in range(repeats):
        wall, _ = run_child([sys.executable, script, workload, str(seed), str(workdir)])
        after = calibrate.kernel_seconds()
        walls.append(wall)
        scaled.append(wall * calibrate.scale(before, after))
        before = after
    return walls, scaled


def import_seconds() -> float:
    """Fresh-process ``import framesense.cli`` as the place child does it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import framesense.cli; print(time.perf_counter() - t)"
    )
    _, out = run_child([sys.executable, "-c", code, str(params.SRC)])
    return float(out)


class Outcome:
    """Attempted and failed op counts, with each op checked."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.fingerprints = []
        self.kernel_s = calibrate.kernel_seconds()

    def fail(self, i, message):
        self.failed += 1
        if self.failed <= 5:
            print(f"op {i} failed: {message}", file=sys.stderr)

    def run(self, i, op) -> tuple[bool, float, float]:
        """Run and check op ``i``.

        Returns whether it passed, its wall latency, and that latency in
        reference seconds (see ``calibrate.py``).
        """
        self.attempted += 1
        before = self.kernel_s
        start = time.perf_counter()
        try:
            result = op(i)
        except Exception:  # a failing op is counted, and the run goes on
            result = None
            self.fail(i, traceback.format_exc())
        latency = time.perf_counter() - start
        self.kernel_s = calibrate.kernel_seconds()
        scaled = latency * calibrate.scale(before, self.kernel_s)
        if result is None:
            return False, latency, scaled
        try:
            errors, fingerprint = self.workload.check(i, result)
        except Exception:
            errors, fingerprint = [traceback.format_exc()], None
        j = self.workload.ref_index(i)
        if self.refs is not None and j < len(self.refs) and fingerprint is not None:
            errors += checks.compare(self.refs[j], fingerprint, f"op {i} vs reference")
        self.fingerprints.append(fingerprint)
        if errors:
            self.fail(i, "; ".join(errors[:5]))
        return not errors, latency, scaled

    def loop(self, first, seconds, op) -> tuple[list, list, int]:
        """Ops from index ``first`` until ``seconds`` of op wall time is spent.

        Returns the wall and reference-second latencies of the ops that
        passed, and the next op index.
        """
        walls, scaled = [], []
        spent = 0.0
        i = first
        while spent < seconds:
            ok, wall, ref = self.run(i, op)
            spent += wall
            if ok:
                walls.append(wall)
                scaled.append(ref)
            i += 1
        return walls, scaled, i


def rate(latencies) -> float:
    return len(latencies) / sum(latencies) if latencies else 0.0


def end_to_end(wl, outcome, seconds, setups) -> tuple[dict, dict, list]:
    """Timed ops in reference seconds; wall-clock figures go in the notes."""
    walls, scaled, _ = outcome.loop(0, seconds, wl.op)
    if wl.name == "place":
        rss = statistics.median(wl.child_rss_mib) if wl.child_rss_mib else 0.0
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_walls, setup_scaled = setups
    metrics = {
        "ops_per_s": rate(scaled),
        "latency_p50_s": statistics.median(scaled) if scaled else 0.0,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mib": rss,
    }
    samples = {
        "ops_per_s": f"n={len(scaled)}",
        "latency_p50_s": f"n={len(scaled)}",
        "setup_s": f"n={len(setup_scaled)}",
        "peak_rss_mib": f"n={len(wl.child_rss_mib)}" if wl.name == "place" else "process high-water mark",
    }
    notes = [
        f"wall clock: ops_per_s {rate(walls):.6g} 1/s, latency_p50_s "
        f"{statistics.median(walls) if walls else 0.0:.6g} s, setup_s {statistics.median(setup_walls):.6g} s; "
        f"calibration kernel {outcome.kernel_s * 1e3:.4g} ms at the end "
        f"(reference {calibrate.REFERENCE_S * 1e3:g} ms)"
    ]
    return metrics, samples, notes


def per_layer(fs, wl, outcome, seconds, names, trace_path, env) -> tuple[dict, dict, list]:
    """Untraced then traced ops; all per-layer figures are wall-clock."""

    untraced, _, i = outcome.loop(0, seconds / 2, wl.replay)
    tracer = spans.Tracer(fs)
    try:
        tracer.run_op(spans.SETUP, wl.setup_replay)
        traced, _, _ = outcome.loop(i, seconds / 2, lambda j: tracer.run_op(j, wl.replay, j))
    finally:
        tracer.restore()
    n_ops = max(len(traced), 1)
    busy, self_s, calls = tracer.totals()

    def stat(table, name):
        return table[name, "op"] / n_ops + table[name, "setup"]

    def count(name):
        return tracer.counts["op"][name] / n_ops + tracer.counts["setup"][name]

    child_wall = import_s = 0.0
    if wl.name == "place":
        child_wall = statistics.median(
            outcome.run(10**6 + j, wl.op)[1] for j in range(CHILD_WALL_REPEATS)
        )
        import_s = statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))
    eigen_calls = stat(calls, "linalg.sym_eigenvalues")
    op_busy = stat(busy, "bench.op")
    dominant = sum(stat(busy, name) for name in DOMINANT[wl.name])
    if wl.name == "place":
        dominant_share = (dominant + import_s) / child_wall
    else:
        dominant_share = dominant / op_busy if op_busy else 0.0
    values = {}
    for name in names:
        layer_fn, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = stat(calls, layer_fn)
        elif kind == "busy_s":
            values[name] = stat(busy, layer_fn)
        elif kind == "self_s":
            values[name] = stat(self_s, layer_fn)
        elif kind in ("subsets", "bytes", "unbounded"):
            values[name] = count(name)
    values.update({
        "placement.framesense.table_mib": tracer.peaks["placement.framesense.table_mib"],
        "linalg.sym_eigenvalues.order_mean": (
            count("linalg.sym_eigenvalues.order_sum") / eigen_calls if eigen_calls else 0.0
        ),
        "cli.import_s": import_s,
        "cli.child_wall_s": child_wall,
        "cli.process_overhead_s": child_wall - stat(busy, "cli.main") if child_wall else 0.0,
        "bench.dominant_share": dominant_share,
        "trace.untraced_ops_per_s": rate(untraced),
        "trace.traced_ops_per_s": rate(traced),
        "trace.slowdown": rate(untraced) / rate(traced) if traced else 0.0,
    })
    tracer.write_jsonl(trace_path, {"workload": wl.name, "traced_ops": len(traced), "env": env})
    samples = {name: f"n={len(traced)}" for name in values}
    samples.update({"cli.import_s": f"n={IMPORT_REPEATS}", "cli.child_wall_s": f"n={CHILD_WALL_REPEATS}",
                    "trace.untraced_ops_per_s": f"n={len(untraced)}"})
    samples.update({name: "computed from sizes" for name in COMPUTED})
    orders = ", ".join(f"order {k}: {v / n_ops:g}/op" for k, v in sorted(tracer.orders.items()))
    notes = [f"eigen calls by matrix order (computed): {orders or 'none'}"]
    return values, samples, notes


def load_references(seed, workload):
    if not REFERENCES.exists():
        return None
    seeds = json.loads(REFERENCES.read_text(encoding="utf-8"))["seeds"]
    return seeds.get(str(seed), {}).get(workload)


def record(fs) -> int:
    """Rewrite ``references.json`` from the current code."""
    out = {
        "recorded_with": "python3 perfbench/run.py --record",
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "source_sha256": environment(fs)["source_sha256"],
        "seeds": {},
    }
    for seed in (DEFAULT_SEED, HOLDOUT_SEED):
        for name, cls in workloads.WORKLOADS.items():
            workdir = WORK / f"record-{name}-{seed}-{os.getpid()}"
            workdir.mkdir(parents=True)
            try:
                run_setups(name, seed, workdir, 1)
                outcome = Outcome(cls(fs, workdir, seed), None)
                for i in range(REFERENCE_OPS[name]):
                    outcome.run(i, outcome.workload.op)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if outcome.failed:
                print(f"error: {outcome.failed} {name} ops failed at seed {seed}", file=sys.stderr)
                return 1
            out["seeds"].setdefault(str(seed), {})[name] = outcome.fingerprints
            print(f"recorded {name} seed {seed}: {len(outcome.fingerprints)} ops", file=sys.stderr)
    REFERENCES.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=params.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; hold-out seed {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite references.json")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        fs = import_program()
        spec = json.loads((params.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.record:
        return record(fs)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(fs)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = run_setups(args.workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS)
        wl = workloads.WORKLOADS[args.workload](fs, workdir, args.seed)
        outcome = Outcome(wl, load_references(args.seed, args.workload))
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values, samples, notes = per_layer(fs, wl, outcome, args.seconds, declared, trace_path, env)
        else:
            values, samples, notes = end_to_end(wl, outcome, args.seconds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{outcome.attempted} ops attempted, {outcome.failed} failed, "
          f"error_rate {outcome.failed / max(outcome.attempted, 1):.6g}")
    if args.trace:
        print(f"trace written to {trace_path.relative_to(params.ROOT)}")
    for name, unit in declared.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit:<8} ({samples[name]})")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
