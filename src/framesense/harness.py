"""Experiment harness: MSE sweeps, timing sweeps, and oracle audits.

Each sweep walks a grid of (family, trial, L, algorithm) cells, regenerates
the trial matrix from a counter-derived seed, and records one raw CSV row
per cell. Every raw row can be regenerated from its recorded
(family, N, K, seed, L, algorithm) tuple alone, which is also why results
are identical no matter how many worker threads run the trials: workers
share nothing but read-only matrices, and rows are sorted into a canonical
order before anything is written.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import BOUNDS_CSV_HEADER, BoundsReport, compute_bounds_report
from .linalg import as_sensing_matrix, frame_potential, mse
from .matgen import FAMILIES, GeneratorSpec, generate
from .matio import load_matrix
from .placement import ALGORITHMS, ORACLE_SUBSET_LIMIT, PlacementOptions, exhaustive_oracle, run_placement
from .seeding import derive_seed

__all__ = [
    "AGG_CSV_HEADER",
    "AUDIT_CSV_HEADER",
    "AuditRow",
    "AuditTable",
    "ExperimentConfig",
    "RAW_CSV_HEADER",
    "RawRow",
    "ResultTable",
    "oracle_audit",
    "sweep_mse",
    "sweep_timing",
]

RAW_CSV_HEADER = "family,N,K,L,algorithm,trial,seed,mse,fp,wall_time_seconds"
AGG_CSV_HEADER = (
    "family,N,K,L,algorithm,trials,mse_mean,mse_std,mse_unbounded,fp_mean,fp_std,time_mean,time_std"
)
AUDIT_CSV_HEADER = (
    "family,trial,seed,"
    + BOUNDS_CSV_HEADER
    + ",fp_greedy,fp_opt,mse_greedy,mse_opt,fp_within_gamma,mse_within_bounds,status"
)

_FMT = "%.17g"


@dataclass
class ExperimentConfig:
    """Settings for one sweep or audit run.

    JSON config files use exactly these field names. ``family`` may be a
    single family name or a list to sweep several; ``matrix_csv`` overrides
    generation with a fixed matrix read from disk (its rows then define N
    and K, and the family column reads ``csv``) in ``sweep_mse`` only, and
    the other runs reject it. ``n_values`` only matters for timing sweeps,
    ``l_values`` for everything else.
    """

    family: str | list = "gaussian"
    n: int = 100
    k: int = 30
    scale: float | None = None
    entry_scale: float = 1.0
    matrix_csv: str | None = None
    l_values: tuple = (30, 35, 40, 45, 50, 55, 60)
    n_values: tuple = (20, 50, 80, 110, 140, 170, 200)
    trials: int = 100
    algorithms: tuple = ("framesense", "det", "mse", "random")
    sigma2: float = 1.0
    master_seed: int = 0
    threads: int = 1
    normalize_rows: bool = True

    def __post_init__(self):
        if isinstance(self.family, str):
            self.family = [self.family]
        self.family = list(self.family)
        for fam in self.family:
            if fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r}, expected one of {FAMILIES}")
        self.l_values = tuple(int(v) for v in self.l_values)
        self.n_values = tuple(int(v) for v in self.n_values)
        self.algorithms = tuple(self.algorithms)
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}, expected one of {ALGORITHMS}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}")
        if not self.l_values:
            raise ValueError("l_values must not be empty")
        if not self.n_values:
            raise ValueError("n_values must not be empty")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}; known keys are {sorted(known)}")
        return cls(**data)

    def check_l_values(self, n: int, k: int):
        """Validate the L grid against actual matrix dimensions."""
        for l in self.l_values:
            if "framesense" in self.algorithms and not k <= l <= n - 2:
                raise ValueError(
                    f"l={l} outside [{k}, {n - 2}] required by framesense on a {n} x {k} matrix"
                )
            if not 1 <= l <= n:
                raise ValueError(f"l={l} outside [1, {n}] for a {n} x {k} matrix")


@dataclass(frozen=True)
class RawRow:
    family: str
    n: int
    k: int
    l: int
    algorithm: str
    trial: int
    seed: int
    mse: float
    fp: float
    wall_time_seconds: float

    def to_csv(self) -> str:
        return ",".join(
            [
                self.family,
                str(self.n),
                str(self.k),
                str(self.l),
                self.algorithm,
                str(self.trial),
                str(self.seed),
                _FMT % self.mse,
                _FMT % self.fp,
                _FMT % self.wall_time_seconds,
            ]
        )


@dataclass(frozen=True)
class AggRow:
    family: str
    n: int
    k: int
    l: int
    algorithm: str
    trials: int
    mse_mean: float
    mse_std: float
    mse_unbounded: int
    fp_mean: float
    fp_std: float
    time_mean: float
    time_std: float

    def to_csv(self) -> str:
        return ",".join(
            [
                self.family,
                str(self.n),
                str(self.k),
                str(self.l),
                self.algorithm,
                str(self.trials),
                _FMT % self.mse_mean,
                _FMT % self.mse_std,
                str(self.mse_unbounded),
                _FMT % self.fp_mean,
                _FMT % self.fp_std,
                _FMT % self.time_mean,
                _FMT % self.time_std,
            ]
        )


def _aggregate(raw: list) -> list:
    """Mean and population std per (family, N, K, L, algorithm) group."""
    groups = {}
    for row in raw:
        groups.setdefault((row.family, row.n, row.k, row.l, row.algorithm), []).append(row)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        mses = np.array([r.mse for r in rows])
        fps = np.array([r.fp for r in rows])
        times = np.array([r.wall_time_seconds for r in rows])
        # groups holding an unbounded MSE get mean=inf and std=nan, and
        # mse_unbounded says how many of their cells are unbounded
        with np.errstate(invalid="ignore"):
            out.append(
                AggRow(
                    family=key[0],
                    n=key[1],
                    k=key[2],
                    l=key[3],
                    algorithm=key[4],
                    trials=len(rows),
                    mse_mean=float(np.mean(mses)),
                    mse_std=float(np.std(mses)),
                    mse_unbounded=int(np.count_nonzero(np.isinf(mses))),
                    fp_mean=float(np.mean(fps)),
                    fp_std=float(np.std(fps)),
                    time_mean=float(np.mean(times)),
                    time_std=float(np.std(times)),
                )
            )
    return out


@dataclass
class ResultTable:
    """Raw per-cell rows plus per-group aggregates, with CSV writers."""

    raw: list
    aggregates: list = field(default_factory=list)
    kind: str = "mse"

    def __post_init__(self):
        if not self.aggregates:
            self.aggregates = _aggregate(self.raw)

    def write(self, prefix) -> list:
        """Write ``<prefix>_raw.csv``, ``<prefix>_agg.csv``, ``<prefix>_plot``."""
        prefix = str(prefix)
        paths = [prefix + "_raw.csv", prefix + "_agg.csv", prefix + "_plot"]
        with open(paths[0], "w", encoding="ascii") as fh:
            fh.write(RAW_CSV_HEADER + "\n")
            for row in self.raw:
                fh.write(row.to_csv() + "\n")
        with open(paths[1], "w", encoding="ascii") as fh:
            fh.write(AGG_CSV_HEADER + "\n")
            for row in self.aggregates:
                fh.write(row.to_csv() + "\n")
        with open(paths[2], "w", encoding="ascii") as fh:
            fh.write(self.plot_script())
        return paths

    def plot_script(self) -> str:
        """Self-contained gnuplot script over the aggregated numbers."""
        if self.kind == "timing":
            xlabel, xfield = "candidate locations N", "n"
            ylabel, yfield, errfield = "mean wall time [s]", "time_mean", "time_std"
            title = "placement wall time"
        else:
            xlabel, xfield = "sensors L", "l"
            ylabel, yfield, errfield = "mean MSE", "mse_mean", "mse_std"
            title = "reconstruction error"
        lines = [
            "# gnuplot script, data embedded below; run:  gnuplot <this file>",
            "set datafile separator ','",
            f"set title '{title}'",
            f"set xlabel '{xlabel}'",
            f"set ylabel '{ylabel}'",
            "set logscale y",
            "set key outside",
            "set terminal svg size 900,600",
            "set output 'sweep.svg'",
        ]
        series = {}
        for row in self.aggregates:
            series.setdefault((row.family, row.algorithm), []).append(row)
        names = []
        for idx, key in enumerate(sorted(series)):
            block = f"$data{idx}"
            names.append((block, f"{key[0]}/{key[1]}"))
            lines.append(f"{block} << EOD")
            for row in series[key]:
                x = getattr(row, xfield)
                y = getattr(row, yfield)
                err = getattr(row, errfield)
                lines.append(f"{x},{_FMT % y},{_FMT % err}")
            lines.append("EOD")
        plots = ", ".join(
            f"{block} using 1:2:3 with yerrorlines title '{label}'" for block, label in names
        )
        lines.append("plot " + plots)
        return "\n".join(lines) + "\n"


def _trial_seed(master_seed: int, family: str, trial: int) -> int:
    return derive_seed(f"harness/{family}", master_seed, trial)


def _trial_matrix(cfg: ExperimentConfig, family: str, n: int, k: int, seed: int):
    spec = GeneratorSpec(
        family=family,
        n=n,
        k=k,
        seed=seed,
        scale=cfg.scale if family == "stacked_scaled" else None,
        entry_scale=cfg.entry_scale,
    )
    return generate(spec)


def _placement_cell(cfg, matrix, l, algo, seed, warmup=False):
    opts = PlacementOptions(
        algorithm=algo,
        normalize_rows=cfg.normalize_rows,
        seed=seed,
        sigma2=cfg.sigma2,
    )
    if warmup:
        run_placement(matrix, l, opts)
    start = time.perf_counter()
    selection = run_placement(matrix, l, opts)
    elapsed = time.perf_counter() - start
    cell_mse = mse(matrix, selection.chosen, cfg.sigma2)
    cell_fp = frame_potential(matrix, selection.chosen)
    return selection, cell_mse, cell_fp, elapsed


def _run_tasks(tasks, threads: int) -> list:
    if threads <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda task: task(), tasks))


def _sort_raw(rows: list) -> list:
    return sorted(rows, key=lambda r: (r.family, r.n, r.k, r.l, r.algorithm, r.trial))


def sweep_mse(cfg: ExperimentConfig) -> ResultTable:
    """Reconstruction error of each algorithm across a grid of sensor counts.

    One matrix per (family, trial), regenerated from a derived seed; every
    (L, algorithm) cell runs on that same matrix. Unbounded MSE cells are
    recorded as infinity rather than aborting the sweep.
    """
    fixed = None
    if cfg.matrix_csv is not None:
        fixed = as_sensing_matrix(load_matrix(cfg.matrix_csv))
        cfg.check_l_values(fixed.n, fixed.k)
        families = ["csv"]
    else:
        cfg.check_l_values(cfg.n, cfg.k)
        families = cfg.family

    def make_task(family, trial):
        def task():
            seed = _trial_seed(cfg.master_seed, family, trial)
            if fixed is not None:
                matrix = fixed
            else:
                matrix = _trial_matrix(cfg, family, cfg.n, cfg.k, seed)
            rows = []
            for l in cfg.l_values:
                for algo in cfg.algorithms:
                    _, cell_mse, cell_fp, elapsed = _placement_cell(cfg, matrix, l, algo, seed)
                    rows.append(
                        RawRow(family, matrix.n, matrix.k, l, algo, trial, seed,
                               cell_mse, cell_fp, elapsed)
                    )
            return rows
        return task

    tasks = [make_task(family, trial) for family in families for trial in range(cfg.trials)]
    raw = [row for rows in _run_tasks(tasks, cfg.threads) for row in rows]
    return ResultTable(_sort_raw(raw), kind="mse")


def sweep_timing(cfg: ExperimentConfig) -> ResultTable:
    """Placement wall time across matrix sizes, L = ceil(N / 2).

    Runs strictly single-worker regardless of ``cfg.threads``. Each timed
    cell runs once after one untimed warm-up; timing covers only the
    placement call, never matrix generation, evaluation, or I/O.
    """
    if cfg.matrix_csv is not None:
        raise ValueError("matrix_csv applies to sweep-mse only; timing sweeps generate their matrices")
    rows = []
    for family in cfg.family:
        for n in cfg.n_values:
            l = (n + 1) // 2
            if "framesense" in cfg.algorithms and not cfg.k <= l <= n - 2:
                raise ValueError(
                    f"timing grid point n={n} gives l={l} outside [{cfg.k}, {n - 2}]"
                )
            for trial in range(cfg.trials):
                seed = _trial_seed(cfg.master_seed, family, trial)
                matrix = _trial_matrix(cfg, family, n, cfg.k, seed)
                for algo in cfg.algorithms:
                    _, cell_mse, cell_fp, elapsed = _placement_cell(
                        cfg, matrix, l, algo, seed, warmup=True
                    )
                    rows.append(
                        RawRow(family, n, cfg.k, l, algo, trial, seed,
                               cell_mse, cell_fp, elapsed)
                    )
    return ResultTable(_sort_raw(rows), kind="timing")


@dataclass(frozen=True)
class AuditRow:
    family: str
    trial: int
    seed: int
    report: BoundsReport
    fp_greedy: float
    fp_opt: float
    mse_greedy: float
    mse_opt: float
    fp_within_gamma: bool | None
    mse_within_bounds: bool | None
    status: str

    def to_csv(self) -> str:
        def flag(value):
            return "" if value is None else str(int(value))

        return ",".join(
            [
                self.family,
                str(self.trial),
                str(self.seed),
                self.report.to_csv_row(),
                _FMT % self.fp_greedy,
                _FMT % self.fp_opt,
                _FMT % self.mse_greedy,
                _FMT % self.mse_opt,
                flag(self.fp_within_gamma),
                flag(self.mse_within_bounds),
                self.status,
            ]
        )


@dataclass
class AuditTable:
    """Per-instance certificate checks plus a pass-rate summary."""

    rows: list

    def summary(self) -> dict:
        audited = [r for r in self.rows if r.status == "ok"]
        fp_pass = sum(1 for r in audited if r.fp_within_gamma)
        mse_pass = sum(1 for r in audited if r.mse_within_bounds)
        ratios = [r.fp_greedy / r.fp_opt for r in audited if r.fp_opt > 0]
        return {
            "instances": len(self.rows),
            "audited": len(audited),
            "skipped": len(self.rows) - len(audited),
            "fp_pass": fp_pass,
            "mse_pass": mse_pass,
            "max_fp_ratio": max(ratios) if ratios else math.nan,
            "mean_fp_ratio": float(np.mean(ratios)) if ratios else math.nan,
        }

    def write(self, prefix) -> list:
        prefix = str(prefix)
        paths = [prefix + "_raw.csv", prefix + "_agg.csv"]
        with open(paths[0], "w", encoding="ascii") as fh:
            fh.write(AUDIT_CSV_HEADER + "\n")
            for row in self.rows:
                fh.write(row.to_csv() + "\n")
        info = self.summary()
        with open(paths[1], "w", encoding="ascii") as fh:
            fh.write("instances,audited,skipped,fp_pass,mse_pass,max_fp_ratio,mean_fp_ratio\n")
            fh.write(
                ",".join(
                    [
                        str(info["instances"]),
                        str(info["audited"]),
                        str(info["skipped"]),
                        str(info["fp_pass"]),
                        str(info["mse_pass"]),
                        _FMT % info["max_fp_ratio"],
                        _FMT % info["mean_fp_ratio"],
                    ]
                )
                + "\n"
            )
        return paths


def oracle_audit(cfg: ExperimentConfig) -> AuditTable:
    """Check greedy selections against exhaustive optima and certificates.

    Per instance: frame potential and MSE of the greedy selection versus the
    exhaustive optima, the gamma factor, delta and eta when enumerable, and
    the MSE envelope of the greedy selection, with pass flags for the two
    certified inequalities. Instances whose subset count exceeds the
    enumeration guard are recorded as skipped, not errors.

    The certified greedy always runs with ``normalize_rows=False``, the run
    the gamma certificate covers; ``cfg.normalize_rows`` does not apply to
    audits.
    """
    if cfg.matrix_csv is not None:
        raise ValueError("matrix_csv applies to sweep-mse only; audits generate their matrices")
    rows = []
    for family in cfg.family:
        for trial in range(cfg.trials):
            seed = _trial_seed(cfg.master_seed, family, trial)
            matrix = _trial_matrix(cfg, family, cfg.n, cfg.k, seed)
            for l in cfg.l_values:
                if math.comb(matrix.n, l) > ORACLE_SUBSET_LIMIT:
                    empty = BoundsReport(
                        matrix.n, matrix.k, l, *([math.nan] * 9)
                    )
                    rows.append(
                        AuditRow(family, trial, seed, empty,
                                 math.nan, math.nan, math.nan, math.nan,
                                 None, None,
                                 f"skipped: C({matrix.n};{l}) exceeds enumeration guard")
                    )
                    continue
                opts = PlacementOptions(
                    algorithm="framesense",
                    normalize_rows=False,
                    seed=seed,
                    sigma2=cfg.sigma2,
                )
                selection = run_placement(matrix, l, opts)
                fp_greedy = frame_potential(matrix, selection.chosen)
                mse_greedy = mse(matrix, selection.chosen, 1.0)
                _, fp_opt = exhaustive_oracle(matrix, l, "fp")
                _, mse_opt = exhaustive_oracle(matrix, l, "mse")
                report = compute_bounds_report(matrix, l, selection.chosen)
                fp_ok = bool(fp_greedy <= report.gamma * fp_opt)
                mse_ok = bool(
                    report.mse_bound_lower <= mse_greedy <= report.mse_bound_upper
                )
                rows.append(
                    AuditRow(family, trial, seed, report,
                             fp_greedy, fp_opt, mse_greedy, mse_opt,
                             fp_ok, mse_ok, "ok")
                )
    return AuditTable(rows)
