"""Sensor location selection.

The main algorithm eliminates rows one at a time, always removing the row
whose removal lowers the frame potential of what remains the most. It never
builds the N x N table of row inner products: initial candidate scores come
from the K x K frame operator in O(N K^2), and each elimination downdates
them with one (N, K) matrix-vector product, so the eliminations cost
O(N (N - L) K) and memory stays O(N K). Only the search for the first,
most parallel pair is quadratic, O(N^2 K), and it runs over blocks of rows.

Reference baselines (determinant, error-trace, mutual-information and
coherence greedies, plus a seeded random picker and exhaustive search)
share the same Selection record so sweeps can treat them interchangeably.

Ties in every scan break toward the lowest row index; in the frame-potential
greedy, values within a rounding bound of the best count as tied. Reported
objectives always refer to the original matrix even when selection itself
runs on a row-normalized copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import as_sensing_matrix, mse, row_normalize
from .seeding import philox_generator

__all__ = [
    "ALGORITHMS",
    "CovarianceConditioningError",
    "ORACLE_SUBSET_LIMIT",
    "PlacementOptions",
    "Selection",
    "exhaustive_oracle",
    "framesense",
    "greedy_coherence",
    "greedy_det",
    "greedy_mi",
    "greedy_mse",
    "marginal_gain",
    "random_placement",
    "row_gram",
    "run_placement",
]

ALGORITHMS = ("framesense", "det", "mse", "mi", "coherence", "random")

# Exhaustive search refuses to enumerate more subsets than this.
ORACLE_SUBSET_LIMIT = 10_000_000

_MAX_SEED = 2**64

# framesense counts as tied every candidate within this fraction of a scale
# of the best one and takes the lowest index among them. For the first pair
# the scale is the largest squared inner product; for eliminations it is the
# largest rounding bound over the remaining rows (see _scores). It sits far
# above the float64 rounding of the scores, so exact ties stay ties; a real
# gap below it is treated as a tie.
_TIE_RTOL = 1e-12

# framesense recomputes its scores from the surviving rows once the largest
# gain, relative to the largest rounding bound, falls below this fraction of
# its value at the last computation, so the tie tolerance stays near the
# scale of the gains it compares (rows of very different norms).
_RESCORE_RATIO = 1e-3

# Entries of the row block the first-pair search holds at once (4 MiB).
_PAIR_BLOCK_ENTRIES = 2**19


class CovarianceConditioningError(RuntimeError):
    """A conditional-variance solve failed or returned a nonpositive value."""


@dataclass(frozen=True)
class PlacementOptions:
    """Knobs shared by the placement algorithms.

    ``normalize_rows`` affects only the frame-potential greedy, which runs
    on a unit-norm copy when set; the other objectives already account for
    row energies. ``ridge`` defaults to 1e-6 times the mean squared row norm
    of the matrix at hand when left as None. ``seed`` feeds the random
    picker only.
    """

    algorithm: str = "framesense"
    normalize_rows: bool = True
    seed: int = 0
    sigma2: float = 1.0
    ridge: float | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.ridge is not None and not (math.isfinite(self.ridge) and self.ridge > 0.0):
            raise ValueError(f"ridge must be positive and finite, got {self.ridge}")

    def resolved_ridge(self, matrix) -> float:
        if self.ridge is not None:
            return self.ridge
        m = as_sensing_matrix(matrix)
        return 1e-6 * float(np.mean(m.row_norms**2))


@dataclass(frozen=True)
class Selection:
    """Outcome of one placement run.

    ``chosen`` holds the selected row indices; for best-in greedies the
    order is the pick order, for eliminating and random algorithms it is
    ascending. ``eliminated`` preserves elimination order where one exists
    and is ascending otherwise. ``objective_trace`` records the per-step
    objective; empty for the random picker.
    """

    chosen: tuple
    eliminated: tuple
    objective_trace: tuple

    def __post_init__(self):
        chosen = set(self.chosen)
        eliminated = set(self.eliminated)
        n = len(self.chosen) + len(self.eliminated)
        if len(chosen) != len(self.chosen) or len(eliminated) != len(self.eliminated):
            raise ValueError("selection lists contain duplicates")
        if chosen & eliminated:
            raise ValueError("chosen and eliminated sets overlap")
        if chosen | eliminated != set(range(n)):
            raise ValueError("chosen and eliminated must partition the row indices")


def row_gram(psi) -> np.ndarray:
    """N x N table of inner products between all candidate rows."""
    m = as_sensing_matrix(psi)
    return m.entries @ m.entries.T


def marginal_gain(rowgram, remaining, i: int) -> float:
    """Drop in frame potential caused by removing row ``i`` from ``remaining``.

    Equals twice the sum of squared inner products between row ``i`` and the
    other remaining rows, plus its squared diagonal entry.
    """
    g = np.asarray(rowgram, dtype=np.float64)
    rem = {int(x) for x in remaining}
    i = int(i)
    if i not in rem:
        raise ValueError(f"row {i} is not in the remaining set")
    others = np.fromiter((n for n in rem if n != i), dtype=np.int64, count=len(rem) - 1)
    cross = g[others, i] if others.size else np.zeros(0)
    return 2.0 * float(cross @ cross) + float(g[i, i]) ** 2


def framesense(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Greedy worst-out frame-potential minimization.

    Starts by eliminating the pair of rows with the largest squared inner
    product, then repeatedly eliminates the row with the largest marginal
    frame-potential gain until ``num_sensors`` rows remain. No N x N table
    is built: initial scores come from the K x K frame operator, and each
    elimination downdates them with one (N, K) matrix-vector product.

    Gains within a rounding bound of the best one count as tied, and ties
    go to the lowest row index (the lexicographically smallest pair for the
    first move). The bound follows the remaining rows; when the gains fall
    far below it, the scores are recomputed from the survivors in
    O(N K^2), once per thousandfold drop of the largest gain relative to
    the bound.

    Parameters
    ----------
    psi : SensingMatrix or array_like
    num_sensors : int
        Number of rows to keep; must satisfy K <= num_sensors <= N - 2.
    opts : PlacementOptions, optional
        ``normalize_rows`` (default on) runs the selection on a unit-norm
        copy; the objective trace still reports frame potentials of the
        original matrix.

    Returns
    -------
    Selection
        ``chosen`` ascending, ``eliminated`` in elimination order, and one
        objective value per elimination.
    """
    m = as_sensing_matrix(psi)
    opts = opts or PlacementOptions()
    n, k = m.shape
    # L >= K is needed for full-rank reconstruction but not for elimination
    # itself, so only the pair initialization constrains the range here.
    if not 1 <= num_sensors <= n - 2:
        raise ValueError(
            f"sensor count must lie in [1, {n - 2}] for a {n} x {k} matrix, got {num_sensors}"
        )
    w = (row_normalize(m) if opts.normalize_rows else m).entries
    diag2 = np.einsum("ij,ij->i", w, w) ** 2

    first, second = _most_parallel_pair(w)
    eliminated = [first, second]
    # diag2 on remaining rows, -inf on eliminated ones, so 2 * score + live
    # is the gain of every remaining row and never selects a gone one.
    live = diag2.copy()
    live[eliminated] = -np.inf
    score, bound = _scores(w, live, diag2)
    fresh = None

    target = n - num_sensors
    while len(eliminated) < target:
        gains = 2.0 * score + live
        top = float(gains.max())
        err = float(bound.max())
        if fresh is None:
            fresh = (top, err)
        elif top * fresh[1] < _RESCORE_RATIO * fresh[0] * err:
            # the scores carry rounding from rows that are gone; start over
            score, bound = _scores(w, live, diag2)
            fresh = None
            continue
        r = int(np.argmax(gains >= top - _TIE_RTOL * err))
        eliminated.append(r)
        live[r] = -np.inf
        bound[r] = -np.inf
        score -= (w @ w[r]) ** 2

    chosen = tuple(int(i) for i in np.flatnonzero(live > -np.inf))
    return Selection(chosen, tuple(eliminated), _elimination_trace(m, eliminated))


def _scores(w, live, diag2):
    """Cross-term scores of the remaining rows and bounds on their rounding.

    With T the frame operator of the rows where ``live`` is finite,
    score[c] = w_c^T T w_c - |w_c|^4, the sum of <w_r, w_c>^2 over the other
    remaining rows r. The same sum over the absolute values of the entries,
    doubled and plus |w_c|^4, bounds the gain of row c and, up to a small
    multiple of the unit roundoff, the rounding error of its score, then and
    after later downdates. Removed rows get a bound of -inf.
    """
    alive = live > -np.inf
    kept = w[alive]
    score = np.einsum("ij,ij->i", w @ (kept.T @ kept), w) - diag2
    a = np.abs(w)
    kept = a[alive]
    bound = 2.0 * np.einsum("ij,ij->i", a @ (kept.T @ kept), a) - diag2
    bound[~alive] = -np.inf
    return score, bound


def _most_parallel_pair(w) -> tuple[int, int]:
    """Lexicographically first pair i < j whose squared inner product ties the largest.

    Scans ``w @ w.T`` in blocks of rows, each from its own diagonal onward,
    so the working set stays near :data:`_PAIR_BLOCK_ENTRIES` doubles.
    """
    n = w.shape[0]
    step = max(1, _PAIR_BLOCK_ENTRIES // n)
    row_max = np.empty(n - 1)
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        # entry (t, c) pairs row lo + t with row lo + c. Entries left of the
        # diagonal pair row lo + t with a lower row, which counts the same
        # value in its own maximum, so they never move the lowest row that
        # reaches the best value; only the diagonal has to go.
        block = w[lo:hi] @ w[lo:].T
        block *= block
        np.fill_diagonal(block, 0.0)
        row_max[lo:hi] = block.max(axis=1)
    best = float(row_max.max())
    bar = best - _TIE_RTOL * best
    i = int(np.argmax(row_max >= bar))
    row = (w[i + 1:] @ w[i]) ** 2
    # recomputed outside its block, the best product may round just below bar
    j = i + 1 + int(np.argmax(row >= min(bar, row.max())))
    return i, j


def _elimination_trace(m, eliminated) -> tuple:
    """Frame potential of the surviving original rows after each elimination.

    Uses FP = |T_R|_F^2 for the K x K frame operator T_R of the survivors,
    downdated by one outer product per eliminated row.
    """
    e = m.entries
    t = e.T @ e
    trace = []
    for r in eliminated:
        t -= np.outer(e[r], e[r])
        trace.append(float(np.sum(t * t)))
    return tuple(trace)


def _check_best_in_args(m, num_sensors):
    n, k = m.shape
    if not k <= num_sensors <= n:
        raise ValueError(
            f"sensor count must lie in [{k}, {n}] for a {n} x {k} matrix, got {num_sensors}"
        )


def greedy_det(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Best-in greedy maximizing the ridged log determinant of the Gram matrix."""
    m = as_sensing_matrix(psi)
    opts = opts or PlacementOptions(algorithm="det")
    _check_best_in_args(m, num_sensors)
    eps = opts.resolved_ridge(m)
    current = eps * np.eye(m.k)
    available = list(range(m.n))
    chosen = []
    trace = []
    for _ in range(num_sensors):
        best_val = -np.inf
        best_i = -1
        for i in available:
            row = m.entries[i]
            sign, logdet = np.linalg.slogdet(current + np.outer(row, row))
            val = logdet if sign > 0 else -np.inf
            if val > best_val:
                best_val = val
                best_i = i
        chosen.append(best_i)
        available.remove(best_i)
        row = m.entries[best_i]
        current += np.outer(row, row)
        trace.append(best_val)
    return Selection(tuple(chosen), tuple(sorted(available)), tuple(trace))


def greedy_mse(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Best-in greedy minimizing the trace of the ridged inverse Gram matrix."""
    m = as_sensing_matrix(psi)
    opts = opts or PlacementOptions(algorithm="mse")
    _check_best_in_args(m, num_sensors)
    eps = opts.resolved_ridge(m)
    current = eps * np.eye(m.k)
    available = list(range(m.n))
    chosen = []
    trace = []
    for _ in range(num_sensors):
        best_val = np.inf
        best_i = -1
        for i in available:
            row = m.entries[i]
            val = float(np.trace(np.linalg.inv(current + np.outer(row, row))))
            if val < best_val:
                best_val = val
                best_i = i
        chosen.append(best_i)
        available.remove(best_i)
        row = m.entries[best_i]
        current += np.outer(row, row)
        trace.append(best_val)
    return Selection(tuple(chosen), tuple(sorted(available)), tuple(trace))


def _conditional_variance(cov, i, subset, eps) -> float:
    if subset.size == 0:
        return float(cov[i, i])
    block = cov[np.ix_(subset, subset)] + eps * np.eye(subset.size)
    rhs = cov[subset, i]
    try:
        sol = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError as exc:
        raise CovarianceConditioningError(
            f"conditioning on {subset.size} locations failed: {exc}"
        ) from exc
    return float(cov[i, i] - rhs @ sol)


def greedy_mi(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Best-in greedy on mutual-information gain under a Gaussian field model.

    Location covariance is ``psi @ psi.T + sigma2 * I``. Each step adds the
    location maximizing the ratio of its conditional variance given the
    chosen set to its conditional variance given all other unchosen
    locations, both evaluated through ridged Schur complements.
    """
    m = as_sensing_matrix(psi)
    opts = opts or PlacementOptions(algorithm="mi")
    n = m.n
    if not 1 <= num_sensors < n:
        raise ValueError(f"sensor count must lie in [1, {n - 1}], got {num_sensors}")
    eps = opts.resolved_ridge(m)
    cov = m.entries @ m.entries.T + opts.sigma2 * np.eye(n)
    available = list(range(n))
    chosen = []
    trace = []
    for _ in range(num_sensors):
        chosen_idx = np.asarray(chosen, dtype=np.int64)
        best_val = -np.inf
        best_i = -1
        for i in available:
            rest = np.asarray([j for j in available if j != i], dtype=np.int64)
            numer = _conditional_variance(cov, i, chosen_idx, eps)
            denom = _conditional_variance(cov, i, rest, eps)
            if not (numer > 0.0 and denom > 0.0):
                raise CovarianceConditioningError(
                    f"conditional variance at location {i} is not positive"
                )
            val = numer / denom
            if val > best_val:
                best_val = val
                best_i = i
        chosen.append(best_i)
        available.remove(best_i)
        trace.append(best_val)
    return Selection(tuple(chosen), tuple(sorted(available)), tuple(trace))


def greedy_coherence(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Best-in greedy keeping the worst pairwise coherence of the chosen set low.

    Starts from the pair with the smallest coherence, then adds the row
    whose largest coherence against the chosen set is smallest.
    """
    m = as_sensing_matrix(psi)
    n = m.n
    if not 2 <= num_sensors <= n:
        raise ValueError(f"sensor count must lie in [2, {n}], got {num_sensors}")
    norms = m.row_norms
    bad = np.flatnonzero(norms <= 1e-12)
    if bad.size:
        raise ValueError(f"row {int(bad[0])} has near-zero norm, coherence undefined")
    coh = np.abs(m.entries @ m.entries.T) / np.outer(norms, norms)
    np.clip(coh, 0.0, 1.0, out=coh)

    masked = coh.copy()
    masked[np.tril_indices(n)] = np.inf
    first, second = divmod(int(np.argmin(masked)), n)
    chosen = [first, second]
    available = [i for i in range(n) if i not in (first, second)]
    trace = [float(coh[first, second])]
    while len(chosen) < num_sensors:
        worst = coh[np.ix_(chosen, available)].max(axis=0)
        pos = int(np.argmin(worst))
        trace.append(float(worst[pos]))
        chosen.append(available.pop(pos))
    return Selection(tuple(chosen), tuple(sorted(available)), tuple(trace))


def random_placement(psi, num_sensors: int, seed: int = 0) -> Selection:
    """Uniform sample of distinct rows via a seeded Fisher-Yates shuffle."""
    m = as_sensing_matrix(psi)
    n = m.n
    if not 1 <= num_sensors <= n:
        raise ValueError(f"sensor count must lie in [1, {n}], got {num_sensors}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    rng = philox_generator("placement/random", seed)
    idx = np.arange(n)
    for t in range(num_sensors):
        j = int(rng.integers(t, n))
        idx[t], idx[j] = idx[j], idx[t]
    chosen = tuple(int(i) for i in np.sort(idx[:num_sensors]))
    eliminated = tuple(int(i) for i in np.sort(idx[num_sensors:]))
    return Selection(chosen, eliminated, ())


def exhaustive_oracle(psi, num_sensors: int, objective: str = "fp"):
    """Exact optimum over all subsets of the requested size.

    Minimizes either the frame potential (``"fp"``) or the unit-variance
    reconstruction error (``"mse"``). Ties resolve to the lexicographically
    smallest subset. Refuses instances with more than
    :data:`ORACLE_SUBSET_LIMIT` subsets.

    Returns
    -------
    (Selection, float)
        The optimal subset (ascending) and its objective value.
    """
    m = as_sensing_matrix(psi)
    n = m.n
    if not 1 <= num_sensors <= n:
        raise ValueError(f"sensor count must lie in [1, {n}], got {num_sensors}")
    if objective not in ("fp", "mse"):
        raise ValueError(f"objective must be 'fp' or 'mse', got {objective!r}")
    count = math.comb(n, num_sensors)
    if count > ORACLE_SUBSET_LIMIT:
        raise ValueError(
            f"C({n}, {num_sensors}) = {count} subsets exceeds the enumeration "
            f"guard of {ORACLE_SUBSET_LIMIT}"
        )
    if objective == "fp":
        g = m.entries @ m.entries.T
        g2 = g * g

        def evaluate(sub):
            return float(g2[np.ix_(sub, sub)].sum())

    else:

        def evaluate(sub):
            return mse(m, sub, 1.0)

    best_sub = None
    best_val = np.inf
    for sub in combinations(range(n), num_sensors):
        val = evaluate(sub)
        if best_sub is None or val < best_val:
            best_sub = sub
            best_val = val
    eliminated = tuple(i for i in range(n) if i not in set(best_sub))
    return Selection(best_sub, eliminated, (best_val,)), best_val


def run_placement(psi, num_sensors: int, opts: PlacementOptions) -> Selection:
    """Dispatch to the algorithm named in ``opts.algorithm``."""
    algo = opts.algorithm
    if algo == "framesense":
        return framesense(psi, num_sensors, opts)
    if algo == "det":
        return greedy_det(psi, num_sensors, opts)
    if algo == "mse":
        return greedy_mse(psi, num_sensors, opts)
    if algo == "mi":
        return greedy_mi(psi, num_sensors, opts)
    if algo == "coherence":
        return greedy_coherence(psi, num_sensors, opts)
    if algo == "random":
        return random_placement(psi, num_sensors, opts.seed)
    raise AssertionError(f"unhandled algorithm {algo!r}")
