"""Sensor location selection.

The main algorithm eliminates rows one at a time, always removing the row
whose removal lowers the frame potential of what remains the most. It never
builds the N x N table of row inner products: initial candidate scores come
from the K x K frame operator in O(N K^2), and each elimination downdates
them with one (N, K) matrix-vector product, so the eliminations cost
O(N (N - L) K) and memory stays O(N K). Only the search for the first,
most parallel pair is quadratic, O(N^2 K), and it runs over blocks of rows.

Reference baselines (determinant, error-trace, mutual-information and
coherence greedies, which share one best-in loop, plus a seeded random picker
and exhaustive search) share the same Selection record so sweeps can treat
them interchangeably.

Every scan follows one tie rule: values within a rounding bound of the best
count as tied, and the lowest row index among them wins. Reported objectives
always refer to the original matrix even when selection itself runs on a
row-normalized copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import RANK_RTOL, as_sensing_matrix, mse, row_normalize
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

# Placers are looked up at call time, so one replaced on this module (a
# tracer's timing wrapper, a test double) is the one that runs.
_PLACERS = {
    "framesense": lambda psi, l, opts: framesense(psi, l, opts),
    "det": lambda psi, l, opts: greedy_det(psi, l, opts),
    "mse": lambda psi, l, opts: greedy_mse(psi, l, opts),
    "mi": lambda psi, l, opts: greedy_mi(psi, l, opts),
    "coherence": lambda psi, l, opts: greedy_coherence(psi, l, opts),
    "random": lambda psi, l, opts: random_placement(psi, l, opts.seed),
}

ALGORITHMS = tuple(_PLACERS)

# Exhaustive search refuses to enumerate more subsets than this.
ORACLE_SUBSET_LIMIT = 10_000_000

_MAX_SEED = 2**64

# Every scan counts as tied each candidate within this fraction of a scale of
# the best one and takes the lowest index among them (_first_best). The scale
# follows the rounding of the values compared: the largest squared inner
# product (framesense's first pair), the largest rounding bound of the
# remaining rows (its eliminations, see _scores), for det's gains log(1 + q)
# with q = x^T G^-1 x the largest |x|^2 of the free rows times the largest
# eigenvalue of G^-1 over 1 + max q, the error trace before the pick (mse),
# the best ratio (mi), 1 (coherence).
# It sits far above float64 rounding, so exact ties stay ties; a real gap
# below it is treated as a tie.
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
    objective (the log-determinant gain of each pick for ``greedy_det``);
    empty for the random picker.
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
        r = _first_best(gains, err)
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
    i = _first_best(row_max, best)
    # recomputed outside its block, the best product may round a little lower
    j = i + 1 + _first_best((w[i + 1:] @ w[i]) ** 2, best)
    return i, j


def _first_best(values, scale) -> int:
    """Lowest index whose value lies within ``_TIE_RTOL * scale`` of the largest."""
    return int(np.argmax(values >= values.max() - _TIE_RTOL * scale))


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


def _best_in(n, num_sensors, objective, minimize=False, start=()) -> Selection:
    """Add rows to ``start``, best first, until ``num_sensors`` are chosen.

    ``objective(chosen, free)`` returns the objective the chosen set would
    reach with each free row (``free`` ascending) and the scale of their
    rounding; ties go to the lowest index. The trace holds the winning
    value of each step.
    """
    chosen = list(start)
    trace = []
    free = np.setdiff1d(np.arange(n), chosen)
    while len(chosen) < num_sensors:
        values, scale = objective(chosen, free)
        pos = _first_best(-values if minimize else values, scale)
        chosen.append(int(free[pos]))
        trace.append(float(values[pos]))
        free = np.delete(free, pos)
    return Selection(tuple(chosen), tuple(int(i) for i in free), tuple(trace))


def greedy_det(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Best-in greedy maximizing the ridged log determinant of the Gram matrix.

    Adding row x to Gram matrix G raises that log determinant by
    ``log(1 + x^T G^-1 x)`` (matrix determinant lemma), scored for every
    candidate in one eigenbasis of G per step. ``objective_trace`` holds the
    gain of each pick; ``K * log(ridge)`` plus their sum is the log
    determinant of the final ridged Gram matrix.
    """

    def score(inv, y2):
        q = y2 @ inv
        # q rounds in proportion to |x|^2 max(inv); log1p divides that by 1 + q
        return np.log1p(q), float(y2.sum(axis=1).max() * inv.max() / (1.0 + q.max()))

    return _eigen_best_in(psi, num_sensors, opts, score)


def greedy_mse(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Best-in greedy minimizing the trace of the ridged inverse Gram matrix.

    Adding row x to Gram matrix G lowers that trace by
    ``|G^-1 x|^2 / (1 + x^T G^-1 x)`` (Sherman-Morrison). One eigenbasis of
    G per step scores every candidate, and in it the ridge, which dominates
    the trace until the chosen rows span all K directions, weighs every
    candidate alike instead of rounding differently for each.
    """

    def score(inv, y2):
        total = float(inv.sum())
        return total - (y2 @ inv**2) / (1.0 + y2 @ inv), total

    return _eigen_best_in(psi, num_sensors, opts, score, minimize=True)


def _eigen_best_in(psi, num_sensors, opts, score, minimize=False) -> Selection:
    """Best-in loop scored in the eigenbasis of the chosen rows' Gram matrix.

    Each step ``score(inv, y2)`` gets the eigenvalues ``inv`` of the ridged
    inverse Gram matrix G^-1 of the chosen rows and the squared coordinates
    ``y2`` of the free rows in its eigenbasis, so x^T G^-1 x = y2 @ inv.
    """
    m = as_sensing_matrix(psi)
    n, k = m.shape
    if not k <= num_sensors <= n:
        raise ValueError(
            f"sensor count must lie in [{k}, {n}] for a {n} x {k} matrix, got {num_sensors}"
        )
    ridge = (opts or PlacementOptions()).resolved_ridge(m)
    e = m.entries

    def objective(chosen, free):
        lam, vec = np.linalg.eigh(e[chosen].T @ e[chosen])
        # directions lost by the package's rank rule weigh exactly 1 / ridge
        lam[lam < RANK_RTOL * lam[-1]] = 0.0
        return score(1.0 / (ridge + lam), (e[free] @ vec) ** 2)

    return _best_in(n, num_sensors, objective, minimize)


def greedy_mi(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Best-in greedy on mutual-information gain under a Gaussian field model.

    Location covariance is ``psi @ psi.T + sigma2 * I``. Each step adds the
    location maximizing the ratio of its conditional variance given the
    chosen set to its conditional variance given all other unchosen
    locations, both through ridged Schur complements; with
    ``M = cov[free, free] + ridge * I`` the latter is ``1 / (M^-1)_ii - ridge``.
    """
    m = as_sensing_matrix(psi)
    opts = opts or PlacementOptions(algorithm="mi")
    n = m.n
    if not 1 <= num_sensors < n:
        raise ValueError(f"sensor count must lie in [1, {n - 1}], got {num_sensors}")
    eps = opts.resolved_ridge(m)
    cov = m.entries @ m.entries.T + opts.sigma2 * np.eye(n)

    def objective(chosen, free):
        numer = np.diag(cov)[free]
        try:
            if chosen:
                cross = cov[np.ix_(chosen, free)]
                block = cov[np.ix_(chosen, chosen)] + eps * np.eye(len(chosen))
                numer = numer - np.einsum("ij,ij->j", cross, np.linalg.solve(block, cross))
            inv = np.linalg.inv(cov[np.ix_(free, free)] + eps * np.eye(free.size))
        except np.linalg.LinAlgError as exc:
            raise CovarianceConditioningError(f"conditioning failed: {exc}") from exc
        denom = 1.0 / np.diag(inv) - eps
        bad = np.flatnonzero(~((numer > 0.0) & (denom > 0.0)))
        if bad.size:
            raise CovarianceConditioningError(
                f"conditional variance at location {int(free[bad[0]])} is not positive"
            )
        values = numer / denom
        return values, float(values.max())

    return _best_in(n, num_sensors, objective)


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

    # coherences lie in [0, 1] and round in absolute terms, hence scale 1.
    # The lowest row in a least coherent pair starts; its first step then
    # adds the lowest partner, completing the lexicographically first pair.
    first = _first_best(-coh.min(axis=1), 1.0)

    def objective(chosen, free):
        return coh[np.ix_(chosen, free)].max(axis=0), 1.0

    return _best_in(n, num_sensors, objective, minimize=True, start=(first,))


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
    return _PLACERS[opts.algorithm](psi, num_sensors, opts)
