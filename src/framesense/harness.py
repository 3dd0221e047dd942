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
from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .bounds import BoundsReport, _spectrum_delta, _within_certificates, compute_bounds_report
from .linalg import _check_positive, _check_seed, _check_sensor_count, _enumerable, _flag, _integer
from .linalg import _real, _walk_subsets, as_sensing_matrix, frame_potential, mse
from .matgen import _TABLE, FAMILIES, GeneratorSpec, _refuse_unread, generate
from .matio import _csv_header, csv_row, load_matrix
from .placement import _PLACERS, ALGORITHMS, PlacementOptions, run_placement
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

@dataclass
class ExperimentConfig:
    """Settings for one sweep or audit run.

    JSON config files use exactly these field names. ``family`` may be a
    single family name or a list to sweep several; ``matrix_csv`` overrides
    generation with a fixed matrix read from disk (its rows then define N
    and K, and the family column reads ``csv``) in ``sweep_mse`` only, and
    the other runs reject it; with it, a ``scale``, an ``entry_scale`` other
    than 1.0 and more than one family are refused. ``threads`` other than
    1 is likewise refused outside ``sweep_mse``. ``n_values`` only matters
    for timing sweeps, ``l_values`` for everything else. Counts must be
    integers and lists non-empty lists without repeated entries, and no
    value is cast to the type of its field: one of another type raises
    ValueError.
    """

    family: str | list = FAMILIES[0]  # gaussian
    n: int = 100
    k: int = 30
    scale: float | None = None
    entry_scale: float = 1.0
    matrix_csv: str | None = None
    l_values: tuple = (30, 35, 40, 45, 50, 55, 60)
    n_values: tuple = (60, 80, 110, 140, 170, 200)
    trials: int = 100
    algorithms: tuple = ("framesense", "det", "mse", "random")
    sigma2: float = 1.0
    master_seed: int = 0
    threads: int = 1
    normalize_rows: bool = True

    def __post_init__(self):
        if isinstance(self.family, str):
            self.family = [self.family]
        self.family = list(_listed("family", self.family, FAMILIES))
        for name in ("l_values", "n_values"):
            values = _listed(name, getattr(self, name))
            setattr(self, name, tuple(_integer(f"{name} entry", v) for v in values))
        self.algorithms = _listed("algorithms", self.algorithms, ALGORITHMS)
        for name, low in (("n", None), ("k", None), ("trials", 1), ("threads", 1)):
            _integer(name, getattr(self, name), low)
        _check_seed(self.master_seed, "master_seed")
        for name in ("entry_scale",) + (() if self.scale is None else ("scale",)):
            _real(name, getattr(self, name))
        _check_positive(self.sigma2)
        _flag("normalize_rows", self.normalize_rows)
        if self.matrix_csv is not None and not isinstance(self.matrix_csv, str):
            raise ValueError(f"matrix_csv must be a path, got {self.matrix_csv!r}")

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


def _listed(name: str, value, choices=None) -> tuple:
    """``value`` as a tuple; ValueError, naming it, unless it is a non-empty list.

    An entry outside ``choices``, when given, is refused, and so is a
    repeated entry: it would run the same cells again and count them as
    more trials.
    """
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list, got {value!r}")
    for pos, entry in enumerate(value):
        if choices is not None and entry not in choices:
            raise ValueError(f"{name} entry {entry!r} is unknown, expected one of {choices}")
        if entry in value[:pos]:
            raise ValueError(f"{name} repeats {entry!r}; each entry may appear once")
    return tuple(value)


def _check_grid(algorithms, l_values, n: int, k: int, where: str = ""):
    """ValueError unless every algorithm accepts every L on an N x K matrix.

    Each range is the placer's own, except that framesense also needs
    L >= K, where its near-optimality factor holds. ``where`` prefixes the
    message.
    """
    for l in l_values:
        for algo in algorithms:
            low, high = _PLACERS[algo].sensors(n, k)
            if algo == "framesense":
                low = max(low, k)
            _check_sensor_count(f"{where}{algo}", l, low, high, (n, k))


def _write_csv(path, header, lines):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


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


RAW_CSV_HEADER = _csv_header(RawRow)
AGG_CSV_HEADER = _csv_header(AggRow)


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
    kind: str = "mse"

    @cached_property
    def aggregates(self) -> list:
        """Per-group means and spreads of ``raw``, computed on first read."""
        return _aggregate(self.raw)

    def write(self, prefix) -> list:
        """Write ``<prefix>_raw.csv``, ``<prefix>_agg.csv``, ``<prefix>_plot``."""
        prefix = str(prefix)
        paths = [prefix + "_raw.csv", prefix + "_agg.csv", prefix + "_plot"]
        _write_csv(paths[0], RAW_CSV_HEADER, map(csv_row, self.raw))
        _write_csv(paths[1], AGG_CSV_HEADER, map(csv_row, self.aggregates))
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
                lines.append(csv_row((x, y, err)))
            lines.append("EOD")
        plots = ", ".join(
            f"{block} using 1:2:3 with yerrorlines title '{label}'" for block, label in names
        )
        lines.append("plot " + plots)
        return "\n".join(lines) + "\n"


def _trial_seed(master_seed: int, family: str, trial: int) -> int:
    return derive_seed(f"harness/{family}", master_seed, trial)


def _generator_spec(cfg: ExperimentConfig, family: str, n: int, seed: int = 0) -> GeneratorSpec:
    """The recipe of the config's ``family`` matrix with N = ``n``.

    The one mapping from a config to a generated matrix: every family gets
    ``k``, and of ``scale`` and ``entry_scale`` only the settings that its
    row of the family table in :mod:`~framesense.matgen` reads.
    """
    settings = {name: getattr(cfg, name) for name in _TABLE[family].reads}
    return GeneratorSpec(family, n, cfg.k, seed, **settings)


def _checked_trials(cfg: ExperimentConfig, command: str, run_cell=None) -> list:
    """Check a run before its first placement; one task per trial.

    The one place that turns a config into trials, for ``sweep-mse``,
    ``sweep-time``, ``audit`` and ``matgen``. It refuses ``matrix_csv`` and
    a ``threads`` other than 1 outside ``sweep-mse``, the one run that reads
    them. With ``matrix_csv`` it refuses the generation settings a fixed
    matrix would ignore (a ``scale``, an ``entry_scale`` other than 1.0,
    more than one family) and loads the matrix once; its rows define N and
    K, and its family reads ``csv``. Otherwise it refuses a ``scale`` or an
    ``entry_scale`` other than 1.0 that no listed family reads (a list may
    mix readers and other families; each gets only what it reads) and
    builds every family's recipe at every N of the run (``n``, or each
    ``n_values`` entry for ``sweep-time``), so a setting that
    :class:`GeneratorSpec` refuses fails here and not partway through.
    Then it checks every (L, algorithm) cell the command runs at each N:
    a timing sweep runs L = ceil(N / 2), an audit certifies framesense,
    and ``matgen`` runs none.

    Returns one task per (family, N, trial), in that order. Each derives
    its trial's seed, generates the matrix (or takes the fixed one) and
    returns ``run_cell(cfg, matrix, family, trial, seed, l, algo)`` for
    each cell.
    """
    for name, given in (("matrix_csv", cfg.matrix_csv is not None), ("threads", cfg.threads != 1)):
        if given and command != "sweep-mse":
            raise ValueError(f"{name} applies to sweep-mse only, not to {command}")
    fixed = None
    if cfg.matrix_csv is not None:
        # the generation settings a fixed matrix would silently ignore
        for name, given in (("scale", cfg.scale is not None), ("entry_scale", cfg.entry_scale != 1.0),
                            ("family", len(cfg.family) > 1)):
            if given:
                raise ValueError(f"{name} {getattr(cfg, name)!r} does not apply to matrix_csv, "
                                 "which reads one fixed matrix")
        fixed = as_sensing_matrix(load_matrix(cfg.matrix_csv))
        families, n_values, k = ("csv",), (fixed.n,), fixed.k
    else:
        _refuse_unread(cfg, cfg.family, f"families {cfg.family}")
        families, k = cfg.family, cfg.k
        n_values = cfg.n_values if command == "sweep-time" else (cfg.n,)
        for n in n_values:
            for family in families:
                _generator_spec(cfg, family, n)
    cells = {}
    for n in n_values:
        where, l_values, algorithms = {
            "sweep-mse": ("", cfg.l_values, cfg.algorithms),
            "sweep-time": (f"timing grid point n={n}: ", ((n + 1) // 2,), cfg.algorithms),
            "audit": ("audit: ", cfg.l_values, ("framesense",)),
            "matgen": ("", (), ()),
        }[command]
        _check_grid(algorithms, l_values, n, k, where)
        cells[n] = [(l, algo) for l in l_values for algo in algorithms]

    def task(family, n, trial):
        seed = _trial_seed(cfg.master_seed, family, trial)
        matrix = generate(_generator_spec(cfg, family, n, seed)) if fixed is None else fixed
        return [run_cell(cfg, matrix, family, trial, seed, l, algo) for l, algo in cells[n]]

    return [partial(task, family, n, trial)
            for family in families for n in n_values for trial in range(cfg.trials)]


def _placement_cell(cfg, matrix, family, trial, seed, l, algo, warmup=False) -> RawRow:
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
    return RawRow(
        family, matrix.n, matrix.k, l, algo, trial, seed,
        mse(matrix, selection.chosen, cfg.sigma2),
        frame_potential(matrix, selection.chosen),
        elapsed,
    )


def _run_tasks(tasks, threads: int = 1) -> list:
    """The rows of every task, in task order, run on ``threads`` workers."""
    if threads <= 1:
        return [row for task in tasks for row in task()]
    # imported here: it loads logging, about 0.6 MiB that one-thread runs skip
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [row for rows in pool.map(lambda task: task(), tasks) for row in rows]


def _sort_raw(rows: list) -> list:
    return sorted(rows, key=lambda r: (r.family, r.n, r.k, r.l, r.algorithm, r.trial))


def sweep_mse(cfg: ExperimentConfig) -> ResultTable:
    """Reconstruction error of each algorithm across a grid of sensor counts.

    One matrix per (family, trial), regenerated from a derived seed, or the
    one ``matrix_csv`` matrix for every trial; every (L, algorithm) cell of
    a trial runs on that same matrix. Unbounded MSE cells are recorded as
    infinity rather than aborting the sweep.
    """
    tasks = _checked_trials(cfg, "sweep-mse", _placement_cell)
    return ResultTable(_sort_raw(_run_tasks(tasks, cfg.threads)), kind="mse")


def sweep_timing(cfg: ExperimentConfig) -> ResultTable:
    """Placement wall time across matrix sizes, L = ceil(N / 2).

    Runs single-worker and refuses a ``cfg.threads`` other than 1. Each timed
    cell runs once after one untimed warm-up; timing covers only the
    placement call, never matrix generation, evaluation, or I/O.
    """
    tasks = _checked_trials(cfg, "sweep-time", partial(_placement_cell, warmup=True))
    return ResultTable(_sort_raw(_run_tasks(tasks)), kind="timing")


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


AUDIT_CSV_HEADER = _csv_header(AuditRow)


@dataclass
class AuditTable:
    """Per-instance certificate checks plus a pass-rate summary."""

    rows: list

    def summary(self) -> dict:
        """Instance counts, one ``<quantity>_pass`` count per pass flag, and fp ratios.

        Each ``<quantity>_within_<certificate>`` field of :class:`AuditRow`
        is a pass flag, and its count of audited rows that pass is keyed
        ``<quantity>_pass``, in field order.
        """
        audited = [r for r in self.rows if r.status == "ok"]
        passes = {flag.partition("_within_")[0] + "_pass": sum(getattr(r, flag) for r in audited)
                  for flag in (f.name for f in fields(AuditRow)) if "_within_" in flag}
        ratios = [r.fp_greedy / r.fp_opt for r in audited if r.fp_opt > 0]
        return {
            "instances": len(self.rows),
            "audited": len(audited),
            "skipped": len(self.rows) - len(audited),
            **passes,
            "max_fp_ratio": max(ratios) if ratios else math.nan,
            "mean_fp_ratio": float(np.mean(ratios)) if ratios else math.nan,
        }

    def write(self, prefix) -> list:
        prefix = str(prefix)
        paths = [prefix + "_raw.csv", prefix + "_agg.csv"]
        _write_csv(paths[0], AUDIT_CSV_HEADER, map(csv_row, self.rows))
        info = self.summary()
        _write_csv(paths[1], ",".join(info), [csv_row(info.values())])
        return paths


def oracle_audit(cfg: ExperimentConfig) -> AuditTable:
    """Check greedy selections against exhaustive optima and certificates.

    Per instance: frame potential and MSE of the greedy selection versus the
    exhaustive optima, the gamma factor, delta and eta when enumerable, and
    the MSE envelope of the greedy selection, with pass flags for the two
    certified inequalities. Instances whose subset count exceeds
    :data:`~framesense.linalg.ORACLE_SUBSET_LIMIT` are recorded as
    skipped, not errors: only their subset walk is left out, so their
    optima, delta and eta are NaN and their gamma flag is None, while every
    other column is what a walked instance reports. Each walked instance
    walks its subsets once, with one gather, Gram product and ``eigvalsh``
    call per subset; both optima and delta come from that walk, with the
    values :func:`exhaustive_oracle` and :func:`delta_bound` return, so
    every walked instance reports its delta. ``fp_greedy`` and ``fp_opt``
    follow the one rule of :func:`~framesense.linalg.frame_potential`, so a
    greedy selection that is optimal reports ``fp_greedy == fp_opt``
    exactly.

    The certified greedy always runs with ``normalize_rows=False``, the run
    the gamma certificate covers; ``cfg.normalize_rows`` does not apply to
    audits.
    """
    return AuditTable(_run_tasks(_checked_trials(cfg, "audit", _audit_cell)))


def _audit_cell(cfg, matrix, family, trial, seed, l, algo) -> AuditRow:
    """``algo``'s selection of ``l`` rows checked against the optima and its certificates.

    The subsets are walked only within the enumeration guard; past it the
    optima and delta are NaN and every other quantity is still reported.
    """
    selection = run_placement(matrix, l, PlacementOptions(algo, normalize_rows=False))
    fp_greedy = frame_potential(matrix, selection.chosen)
    mse_greedy = mse(matrix, selection.chosen, 1.0)
    if _enumerable(matrix.n, l):
        (_, fp_opt), (_, mse_opt), lam_range = _walk_subsets(matrix, l, fp=True, mse=True, spread=True)
        delta = _spectrum_delta(matrix, l, lam_range)
        status = "ok"
    else:
        fp_opt = mse_opt = delta = math.nan
        status = f"skipped: C({matrix.n};{l}) exceeds enumeration guard"
    report = compute_bounds_report(matrix, l, selection.chosen, delta)
    return AuditRow(family, trial, seed, report, fp_greedy, fp_opt, mse_greedy, mse_opt,
                    *_within_certificates(report, fp_greedy, fp_opt, mse_greedy), status)
