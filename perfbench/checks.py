"""Output checks for benchmark ops.

Each check recomputes what an op reported through an independent numeric
route (``np.linalg.eigvalsh`` and explicit Gram products rather than the
package's own eigen solver), returns a list of error strings and a
fingerprint of the op's outputs. Fingerprints of recorded seeds are
compared against ``references.json``: integers and selections must match
exactly, floats to a relative tolerance, so that a change of eigen solver
passes and a changed selection fails.
"""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

import numpy as np

# Same rank rule as framesense.linalg.RANK_RTOL; restated so the check does
# not trust the code it checks.
RANK_RTOL = 1e-10
FLOAT_RTOL = 1e-9
# MSE sums reciprocal eigenvalues, so solver drift grows with conditioning.
MSE_RTOL = 1e-6


def digest(rows) -> str:
    return hashlib.sha256(",".join(str(int(r)) for r in rows).encode("ascii")).hexdigest()[:16]


def close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def spectrum_stats(blocks: np.ndarray):
    """FP, unit-variance MSE and eigenvalues of each (L, K) row block.

    ``blocks`` has shape (..., L, K). MSE is infinite where the Gram matrix
    loses rank under the package's rule.
    """
    grams = np.swapaxes(blocks, -1, -2) @ blocks
    lam = np.linalg.eigvalsh(grams)
    fp = np.sum(grams * grams, axis=(-1, -2))
    top = lam[..., -1]
    bounded = (top > 0.0) & (lam[..., 0] >= RANK_RTOL * top)
    with np.errstate(divide="ignore"):
        mse = np.where(bounded, np.sum(1.0 / np.where(bounded[..., None], lam, 1.0), axis=-1), np.inf)
    return fp, mse, lam


def mse_tolerance(lam: np.ndarray) -> float:
    """Relative tolerance for an MSE recomputed from eigenvalues ``lam``."""
    if lam[0] <= 0.0:
        return MSE_RTOL
    return FLOAT_RTOL + 1e3 * np.finfo(float).eps * float(lam[-1] / lam[0])


def check_selection(selection, n: int, size: int, errors: list, where: str):
    chosen = [int(i) for i in selection.chosen]
    eliminated = [int(i) for i in selection.eliminated]
    if len(chosen) != size:
        errors.append(f"{where}: {len(chosen)} rows chosen, expected {size}")
    if sorted(chosen + eliminated) != list(range(n)):
        errors.append(f"{where}: chosen and eliminated rows do not partition range({n})")
    return sorted(chosen)


def check_reported(entries, chosen, fp, mse, errors: list, where: str):
    """Reported FP and MSE must match the chosen rows, recomputed here."""
    fp_ref, mse_ref, lam = spectrum_stats(entries[chosen])
    if not close(fp, float(fp_ref)):
        errors.append(f"{where}: fp {fp!r} != recomputed {float(fp_ref)!r}")
    mse_ref = float(mse_ref)
    if math.isinf(mse) != math.isinf(mse_ref):
        # Only a spectrum within a factor of two of the rank threshold may
        # land on either side of it.
        ratio = float(lam[0] / lam[-1]) if lam[-1] > 0 else 0.0
        if not 0.5 * RANK_RTOL <= ratio <= 2.0 * RANK_RTOL:
            errors.append(f"{where}: mse {mse!r} but recomputed {mse_ref!r}")
    elif not close(mse, mse_ref, mse_tolerance(lam)):
        errors.append(f"{where}: mse {mse!r} != recomputed {mse_ref!r}")


def read_csv_rows(path, header: str, errors: list, where: str) -> list:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        errors.append(f"{where}: {path} has an unexpected header")
        return []
    return [line.split(",") for line in lines[1:]]


def compare(ref, got, path: str = "") -> list:
    """Differences between a recorded fingerprint and a fresh one."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(got)} != recorded {sorted(ref)}"]
        out = []
        for key in ref:
            out += compare(ref[key], got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: {len(got)} entries != recorded {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += compare(a, b, f"{path}[{i}]")
        return out
    if isinstance(ref, float) or isinstance(got, float):
        rtol = MSE_RTOL if path.rsplit(".", 1)[-1].startswith("mse") else FLOAT_RTOL
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)) and close(float(got), float(ref), rtol):
            return []
        return [f"{path}: {got!r} != recorded {ref!r}"]
    if ref != got:
        return [f"{path}: {got!r} != recorded {ref!r}"]
    return []


def check_sweep(fs, table, paths, cfg) -> tuple[list, list]:
    """One ``sweep_mse`` trial and the CSV files written from it."""
    errors = []
    raw = table.raw
    expected = sorted((l, algo) for l in cfg.l_values for algo in cfg.algorithms)
    if [(r.l, r.algorithm) for r in raw] != expected:
        return [f"sweep: cells {[(r.l, r.algorithm) for r in raw]} != {expected}"], []
    seeds = {r.seed for r in raw}
    if len(seeds) != 1:
        return [f"sweep: one trial should use one matrix seed, got {sorted(seeds)}"], []
    matrix = fs.generate(fs.GeneratorSpec("gaussian", n=cfg.n, k=cfg.k, seed=raw[0].seed))
    entries = matrix.entries
    fingerprint = []
    for r in raw:
        where = f"sweep L={r.l} {r.algorithm}"
        if (r.n, r.k, r.family, r.trial) != (cfg.n, cfg.k, "gaussian", 0):
            errors.append(f"{where}: row labels {r.family},{r.n},{r.k},{r.trial}")
        if not (r.fp > 0.0 and r.mse > 0.0):
            errors.append(f"{where}: fp {r.fp!r} and mse {r.mse!r} must be positive")
        # FP >= (trace)^2 / K and MSE >= K^2 / trace give FP * MSE^2 >= K^3.
        elif r.fp * r.mse**2 < cfg.k**3 * (1.0 - FLOAT_RTOL):
            errors.append(f"{where}: fp * mse^2 = {r.fp * r.mse**2!r} < K^3")
        cell = {"l": r.l, "algorithm": r.algorithm, "fp": r.fp, "mse": r.mse}
        # framesense and random selections are cheap to replay, so their
        # reported numbers are recomputed from the rows they choose.
        if r.algorithm in ("framesense", "random"):
            opts = fs.PlacementOptions(
                algorithm=r.algorithm, normalize_rows=cfg.normalize_rows, seed=r.seed, sigma2=cfg.sigma2
            )
            chosen = check_selection(fs.run_placement(matrix, r.l, opts), cfg.n, r.l, errors, where)
            check_reported(entries, chosen, r.fp, r.mse / cfg.sigma2, errors, where)
            cell["chosen"] = digest(chosen)
        fingerprint.append(cell)
    rows = read_csv_rows(paths[0], fs.RAW_CSV_HEADER, errors, "sweep raw csv")
    if len(rows) != len(raw) or any(
        float(row[7]) != r.mse or float(row[8]) != r.fp for row, r in zip(rows, raw)
    ):
        errors.append("sweep raw csv: rows do not round-trip the reported mse and fp")
    if len(read_csv_rows(paths[1], fs.AGG_CSV_HEADER, errors, "sweep agg csv")) != len(raw):
        errors.append("sweep agg csv: expected one aggregate row per cell")
    return errors, fingerprint


def check_audit(fs, table, paths, cfg) -> tuple[list, list]:
    """One ``oracle_audit`` instance, re-enumerated here with batched eigvalsh."""
    errors = []
    rows = table.rows
    if [r.report.l for r in rows] != list(cfg.l_values):
        return [f"audit: rows for L={[r.report.l for r in rows]}, expected {list(cfg.l_values)}"], []
    fingerprint = []
    for r in rows:
        l = r.report.l
        where = f"audit L={l}"
        if r.status != "ok":
            errors.append(f"{where}: status {r.status!r}")
            continue
        matrix = fs.generate(fs.GeneratorSpec("gaussian", n=cfg.n, k=cfg.k, seed=r.seed))
        a = matrix.entries
        n, k = a.shape
        opts = fs.PlacementOptions(normalize_rows=cfg.normalize_rows)
        chosen = check_selection(fs.framesense(matrix, l, opts), n, l, errors, where)
        check_reported(a, chosen, r.fp_greedy, r.mse_greedy, errors, where + " greedy")
        subsets = np.array(list(combinations(range(n), l)))
        fps, mses, lam = spectrum_stats(a[subsets])
        if not close(r.fp_opt, float(fps.min())):
            errors.append(f"{where}: fp_opt {r.fp_opt!r} != enumerated {float(fps.min())!r}")
        if not close(r.mse_opt, float(mses.min()), MSE_RTOL):
            errors.append(f"{where}: mse_opt {r.mse_opt!r} != enumerated {float(mses.min())!r}")
        sq = np.sort(np.sum(a * a, axis=1))
        l_min, l_max, l_mean = float(sq[:l].sum()), float(sq[n - l :].sum()), l / n * float(sq.sum())
        gamma = 1.0 + (float(np.sum((a.T @ a) ** 2)) * k / l_min**2 - 1.0) / math.e
        delta = float(np.max(np.abs(lam - l_mean / k)))
        lam_sel = np.linalg.eigvalsh(a[chosen].T @ a[chosen])
        lower = (k / l_max) * r.fp_greedy / lam_sel[-1] ** 2
        upper = (k / l_min) * r.fp_greedy / lam_sel[0] ** 2
        rep = r.report
        for name, got, want in (
            ("gamma", rep.gamma, gamma),
            ("delta", rep.delta, delta),
            ("mse_bound_lower", rep.mse_bound_lower, lower),
            ("mse_bound_upper", rep.mse_bound_upper, upper),
        ):
            if not close(got, want, mse_tolerance(lam_sel)):
                errors.append(f"{where}: {name} {got!r} != recomputed {want!r}")
        if not (r.fp_opt <= r.fp_greedy * (1 + FLOAT_RTOL) and r.fp_greedy <= rep.gamma * r.fp_opt):
            errors.append(f"{where}: fp_opt <= fp_greedy <= gamma * fp_opt fails")
        if not (r.mse_opt <= r.mse_greedy * (1 + MSE_RTOL)
                and rep.mse_bound_lower <= r.mse_greedy <= rep.mse_bound_upper):
            errors.append(f"{where}: mse envelope does not hold")
        if not (r.fp_within_gamma and r.mse_within_bounds):
            errors.append(f"{where}: audit flags {r.fp_within_gamma}, {r.mse_within_bounds}")
        fingerprint.append({
            "l": l, "chosen": digest(chosen), "fp_greedy": r.fp_greedy, "fp_opt": r.fp_opt,
            "mse_greedy": r.mse_greedy, "mse_opt": r.mse_opt, "gamma": rep.gamma, "delta": rep.delta,
        })
    if len(read_csv_rows(paths[0], fs.AUDIT_CSV_HEADER, errors, "audit raw csv")) != len(rows):
        errors.append("audit raw csv: expected one row per instance")
    return errors, fingerprint


def parse_place_output(text: str):
    lines = text.splitlines()
    if len(lines) != 3 or not lines[0].startswith("chosen: "):
        raise ValueError(f"unexpected place output {text[:200]!r}")
    chosen = [int(x) - 1 for x in lines[0].split()[1:]]
    fp = float(lines[1].removeprefix("fp: "))
    mse = float(lines[2].removeprefix("mse: "))
    return chosen, fp, mse


def check_place(text: str, entries: np.ndarray, expected_chosen: list, sensors: int) -> tuple[list, dict]:
    """Stdout of one ``framesense place`` run against the matrix it read."""
    errors = []
    try:
        chosen, fp, mse = parse_place_output(text)
    except ValueError as exc:
        return [f"place: {exc}"], {}
    n = entries.shape[0]
    if len(chosen) != sensors or chosen != sorted(set(chosen)) or not all(0 <= c < n for c in chosen):
        errors.append(f"place: chosen rows are not {sensors} distinct ascending rows of {n}")
        return errors, {}
    if chosen != expected_chosen:
        errors.append("place: CLI selection differs from the in-process framesense() selection")
    check_reported(entries, chosen, fp, mse, errors, "place")
    return errors, {"chosen": digest(chosen), "fp": fp, "mse": mse}
