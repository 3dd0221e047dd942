"""Sensor location selection.

The main algorithm eliminates rows one at a time, always removing the row
whose removal lowers the frame potential of what remains the most. It never
builds the N x N table of row inner products: initial candidate scores come
from the K x K frame operator in O(N K^2), and each elimination downdates
them with one (N, K) matrix-vector product, so the eliminations cost
O(N (N - L) K) and memory stays O(N K). An elimination writes its gains and
its products into two reused N-length buffers and finds its row with one
``argmax`` pass and a tie scan of the rows before it. Only the search for
the first, most parallel pair is quadratic, O(N^2 K); it runs over blocks
of rows, each written into one reused buffer of about 1 MiB.

Reference baselines (determinant, error-trace, mutual-information and
coherence greedies, which share one best-in loop, plus a seeded random picker
and exhaustive search) share the same Selection record so sweeps can treat
them interchangeably. The determinant, error-trace and mutual-information
greedies score every candidate in the eigenbasis of a K x K Gram matrix, one
``eigh`` step shared by all three, O(N K^2). Such a step's work is: the free
rows from a mask of the rows left, one gather each of the chosen and the
free rows, one ``b.T @ b`` Gram product of the chosen block, one ``eigh``
(two for mutual information), one product of the free rows with its
eigenvectors, and a score over two N-length arrays; at K = 30 the ``eigh``
is most of it. The determinant and error-trace greedies take such steps
only from their K-th pick until their picks span all K directions. Before
that, with r < K picks, a step takes the ``eigh`` of their r x r Gram form
instead and scores every row from its coordinates in the picks' span and
its residual, O(N K r) (the first pick takes none). From the span on each
step updates the inverse Gram matrix applied to every row by
Sherman-Morrison, O(N K), the textbook cost of these greedies. The picks
go into one preallocated index array. The coherence greedy finds its start
row with the same pair scan as the main algorithm's first pair, then
updates each row's largest coherence against the chosen set from the
newest pick alone, O(N K) per pick and O(N K) memory. No greedy placer
forms an N x N array.

Every scan follows one tie rule: values within a rounding bound of the best
count as tied, and the lowest row index among them wins. The main
algorithm's objective trace refers to the matrix the selection ran on, the
row-normalized copy by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .linalg import RANK_RTOL, as_sensing_matrix, row_normalize
from .linalg import _check_positive, _check_range, _check_seed, _check_sensor_count, _eigen, _flag
from .linalg import _rank_lost, _walk_subsets
from .seeding import philox_generator

__all__ = [
    "ALGORITHMS",
    "PlacementOptions",
    "Selection",
    "exhaustive_oracle",
    "framesense",
    "greedy_coherence",
    "greedy_det",
    "greedy_mi",
    "greedy_mse",
    "random_placement",
    "run_placement",
]


class _Placer(NamedTuple):
    """One placer: how it runs and the sensor counts L it accepts."""

    run: Callable  # (psi, l, opts) -> Selection
    sensors: Callable  # (n, k) -> lowest and highest L on an N x K matrix


# Runners look their placer up at call time, so one replaced on this module
# (a tracer's timing wrapper, a test double) is the one that runs. Ranges:
# framesense's first move eliminates a pair, det and mse keep at least the
# K rows that can span every direction, mi's last pick conditions on a free
# row, and coherence starts from a pair.
_PLACERS = {
    "framesense": _Placer(lambda psi, l, opts: framesense(psi, l, opts), lambda n, k: (1, n - 2)),
    "det": _Placer(lambda psi, l, opts: greedy_det(psi, l), lambda n, k: (k, n)),
    "mse": _Placer(lambda psi, l, opts: greedy_mse(psi, l), lambda n, k: (k, n)),
    "mi": _Placer(lambda psi, l, opts: greedy_mi(psi, l, opts), lambda n, k: (1, n - 1)),
    "coherence": _Placer(lambda psi, l, opts: greedy_coherence(psi, l), lambda n, k: (2, n)),
    "random": _Placer(lambda psi, l, opts: random_placement(psi, l, opts.seed), lambda n, k: (1, n)),
}

ALGORITHMS = tuple(_PLACERS)


def _check_count(algorithm: str, num_sensors: int, shape) -> None:
    """ValueError unless ``algorithm`` accepts ``num_sensors`` rows of an N x K matrix."""
    _check_sensor_count(algorithm, num_sensors, *_PLACERS[algorithm].sensors(*shape), shape)


# Every scan counts as tied each candidate within this fraction of a scale of
# the best one and takes the lowest index among them (_first_best). The scale
# follows the rounding of the values compared: the largest squared inner
# product (framesense's first pair), the largest rounding bound of the
# remaining rows (its eliminations, see _scores), for det's gains log(1 + q)
# with q = x^T M^-1 x the largest |x|^2 of the free rows times the largest
# eigenvalue of M^-1 (once the picks span, the largest q / |x|^2) over
# 1 + max q, the error trace before the pick (mse), the best ratio (mi),
# 1 (coherence).
# Where the scale bounds the values' rounding from above, the band sits far
# above it, so exact ties stay ties; a real gap below it is treated as a
# tie. det's post-span scale is a lower bound on the largest eigenvalue of
# M^-1, so there the band holds exact ties only while the rows' Rayleigh
# quotients reach near that eigenvalue, and the downdates' rounding builds
# up with the picks.
_TIE_RTOL = 1e-12

# framesense recomputes its scores from the surviving rows once the largest
# gain, relative to the largest rounding bound, falls below this fraction of
# its value at the last computation, so the tie tolerance stays near the
# scale of the gains it compares (rows of very different norms).
_RESCORE_RATIO = 1e-3

# Entries of the one row block the first-pair search reuses (1 MiB).
_PAIR_BLOCK_ENTRIES = 2**17


@dataclass(frozen=True)
class PlacementOptions:
    """Knobs shared by the placement algorithms.

    ``normalize_rows`` affects only the frame-potential greedy, which runs
    on a unit-norm copy when set; the other objectives already account for
    row energies. ``seed`` feeds the random picker only, and ``sigma2`` the
    mutual-information greedy.
    """

    algorithm: str = "framesense"
    normalize_rows: bool = True
    seed: int = 0
    sigma2: float = 1.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        _flag("normalize_rows", self.normalize_rows)
        _check_seed(self.seed)
        _check_positive(self.sigma2)


def _ridge(norms2, p: int = 0) -> float:
    """The ridge of the det, mse and mi greedies: 1e-6 times the mean squared row norm.

    ``norms2`` holds the squared row norms of the rows times 2**-p, which
    scales the ridge by exactly 4**-p wherever it stays in range, so a
    ridge that underflows on tiny rows does not on scaled ones. Raises
    ValueError when the mean squared row norm of the rows as given
    overflows float64.
    """
    with np.errstate(over="ignore"):
        total = float(np.sum(norms2))
    # total * 4**p overflows exactly when its binary exponent passes 1024
    if not math.isfinite(total) or math.frexp(total)[1] + 2 * p > 1024:
        raise ValueError("ridge 1e-6 * mean squared row norm overflows float64; rescale the matrix")
    return 1e-6 * (total / norms2.size)


@dataclass(frozen=True)
class Selection:
    """Outcome of one placement run.

    ``chosen`` holds the selected row indices; for best-in greedies the
    order is the pick order, for eliminating and random algorithms it is
    ascending. ``eliminated`` preserves elimination order where one exists
    and is ascending otherwise. ``objective_trace`` records the per-step
    objective (the frame-potential drop of each elimination for
    ``framesense``, the log-determinant gain of each pick for
    ``greedy_det``); empty for the random picker.
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
        Number of rows to keep; must satisfy 1 <= num_sensors <= N - 2. Below
        K the kept rows cannot span all K directions, so their MSE is
        unbounded.
    opts : PlacementOptions, optional
        ``normalize_rows`` (default on) runs the selection on a unit-norm
        copy. Unnormalized rows whose frame potential fails the range rule
        of :func:`~framesense.linalg.frame_potential` raise ValueError.

    Returns
    -------
    Selection
        ``chosen`` ascending, ``eliminated`` in elimination order, and as
        ``objective_trace`` the gain of each elimination: the drop in frame
        potential of the remaining rows of the matrix the selection ran on
        (the unit-norm copy when rows are normalized).
    """
    m = as_sensing_matrix(psi)
    opts = opts or PlacementOptions()
    _check_count("framesense", num_sensors, m.shape)
    n = m.n
    w = (row_normalize(m) if opts.normalize_rows else m).entries
    # every product, gain and rounding bound below is at most twice the
    # frame potential of |w|, at most 2 E**2 for E the rows' energy, which
    # the range rule keeps in float64
    diag2 = _check_range(np.einsum("ij,ij->i", w, w), fp=True) ** 2

    pair = _most_parallel_pair(w)
    # diag2 on remaining rows, -inf on eliminated ones, so 2 * score + live
    # is the gain of every remaining row and never selects a gone one.
    live = diag2.copy()
    score, bound = _scores(w, live, diag2)
    fresh = None

    eliminated = []
    trace = []
    gains = np.empty(n)
    cross = np.empty(n)
    target = n - num_sensors
    while len(eliminated) < target:
        np.multiply(score, 2.0, out=gains)
        gains += live
        if len(eliminated) < 2:
            # the first move eliminates the pair, each row with its gain
            r = pair[len(eliminated)]
        else:
            r = int(gains.argmax())
            top = float(gains[r])
            err = float(bound.max())
            if fresh is None:
                fresh = (top, err)
            elif top * fresh[1] < _RESCORE_RATIO * fresh[0] * err:
                # the scores carry rounding from rows that are gone; start over
                score, bound = _scores(w, live, diag2)
                fresh = None
                continue
            r = _first_best(gains, err, r)
        eliminated.append(r)
        trace.append(float(gains[r]))
        live[r] = -np.inf
        bound[r] = -np.inf
        np.matmul(w, w[r], out=cross)
        score -= np.square(cross, out=cross)

    chosen = tuple(int(i) for i in np.flatnonzero(live > -np.inf))
    return Selection(chosen, tuple(eliminated), tuple(trace))


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
    """Lexicographically first pair i < j whose squared inner product ties the largest."""
    row_max = _pair_scan(w, np.square)
    best = float(row_max.max())
    i = _first_best(row_max, best)
    # recomputed outside its block, the best product may round a little lower
    j = i + 1 + _first_best((w[i + 1:] @ w[i]) ** 2, best)
    return i, j


def _pair_scan(w, value):
    """Largest ``value`` of each row's inner products with later rows, last row excepted.

    The one pair search, of framesense's most parallel pair and of the
    coherence greedy's least coherent one. It scans ``w @ w.T`` in blocks of
    rows, each from its own diagonal onward and each written into one reused
    buffer of at most ``max(N, _PAIR_BLOCK_ENTRIES)`` doubles, so no two
    blocks are ever live; ``value(block, out=block)`` maps a block in place.
    """
    n = w.shape[0]
    step = max(1, _PAIR_BLOCK_ENTRIES // n)
    row_max = np.empty(n - 1)
    buf = np.empty(min(step, n - 1) * n)
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        # entry (t, c) pairs row lo + t with row lo + c. Entries left of the
        # diagonal pair row lo + t with a lower row, which counts the same
        # value in its own maximum, so they never move the lowest row that
        # reaches the best value; only the diagonal has to go, and every
        # row scanned still has a later column.
        block = buf[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        np.matmul(w[lo:hi], w[lo:].T, out=block)
        value(block, out=block)
        np.fill_diagonal(block, -np.inf)
        row_max[lo:hi] = block.max(axis=1)
    return row_max


def _first_best(values, scale, best=None) -> int:
    """Lowest index whose value lies within ``_TIE_RTOL * scale`` of the largest.

    ``best`` is ``values.argmax()`` when the caller has it. Only the values
    up to it can tie with a lower index, so one tie scan of those follows
    one ``argmax`` pass.
    """
    best = int(values.argmax()) if best is None else best
    return int((values[: best + 1] >= values[best] - _TIE_RTOL * scale).argmax())


def _best_in(n, num_sensors, objective, minimize=False, start=()) -> Selection:
    """Add rows to ``start``, best first, until ``num_sensors`` are chosen.

    ``objective(chosen, free)`` returns the objective the chosen set would
    reach with each free row and the scale of their rounding; ``chosen`` is
    an index array in pick order and ``free`` one in ascending order. Ties
    go to the lowest index. The trace holds the winning value of each step.
    """
    picks = np.empty(num_sensors, dtype=np.intp)
    picks[: len(start)] = start
    # a mask, not np.setdiff1d, which imports numpy.ma on first use
    left = np.ones(n, dtype=bool)
    left[picks[: len(start)]] = False
    trace = []
    for size in range(len(start), num_sensors):
        free = left.nonzero()[0]
        values, scale = objective(picks[:size], free)
        pos = _first_best(-values if minimize else values, scale)
        picks[size] = free[pos]
        left[free[pos]] = False
        trace.append(float(values[pos]))
    return Selection(tuple(picks.tolist()), tuple(left.nonzero()[0].tolist()), tuple(trace))


def greedy_det(psi, num_sensors: int) -> Selection:
    """Best-in greedy maximizing the ridged log determinant of the Gram matrix.

    Adding row x to the ridged Gram matrix M raises its log determinant by
    ``log(1 + x^T M^-1 x)`` (matrix determinant lemma), scored for every
    candidate at once: before K picks in the eigenbasis of their r x r Gram
    form, then in one eigenbasis of M per pick until the picks span all K
    directions, then from M^-1 kept up to date by rank-one steps of O(N K)
    (see :func:`_eigen_best_in`). ``objective_trace`` holds the gain
    of each pick; ``K * log(ridge)`` plus their sum is the log determinant
    of the final ridged Gram matrix. The ridge is 1e-6 times the mean
    squared row norm; a matrix where that overflows float64, or an all-zero
    matrix, raises ValueError, and a LAPACK failure ConvergenceError.
    """

    def score(q, _total, _gx2, inv_max, norms2):
        # q rounds in proportion to |x|^2 max(M^-1); log1p divides that by 1 + q
        scale = float(norms2.max() * inv_max() / (1.0 + q.max()))
        return np.log1p(q, out=q), scale

    return _eigen_best_in("det", psi, num_sensors, score)


def greedy_mse(psi, num_sensors: int) -> Selection:
    """Best-in greedy minimizing the trace of the ridged inverse Gram matrix.

    Adding row x to the ridged Gram matrix M lowers the trace of M^-1 by
    ``|M^-1 x|^2 / (1 + x^T M^-1 x)`` (Sherman-Morrison). Until the picks
    span all K directions, one eigenbasis per pick scores every candidate,
    that of the picks' r x r Gram form before K picks and that of M from
    then on, and in it the ridge, which dominates the trace until then,
    weighs every candidate alike instead of rounding differently for each;
    from the span on M^-1 is kept up to date by rank-one steps of O(N K) (see
    :func:`_eigen_best_in`). The ridge is that of :func:`greedy_det`; it
    scales with the rows, so the picks do not depend on the scale of the
    matrix. A LAPACK failure raises ConvergenceError.
    """

    def score(q, total, gx2, _inv_max, _norms2):
        # total - |M^-1 x|^2 / (1 + x^T M^-1 x), in two N-length arrays
        drop = gx2()
        q += 1.0
        drop /= q
        return np.subtract(total, drop, out=drop), total

    return _eigen_best_in("mse", psi, num_sensors, score, minimize=True, degree=-2)


def _eigen_best_in(algorithm, psi, num_sensors, score, minimize=False, degree=0) -> Selection:
    """Best-in loop of the det and mse greedies, scored from the ridged inverse Gram matrix.

    With M the ridged Gram matrix of the chosen rows, each step calls
    ``score(q, total, gx2, inv_max, norms2)`` with the free rows'
    q = x^T M^-1 x, the trace ``total`` of M^-1, the free rows' squared
    norms ``norms2``, and two functions, called only by the objective that
    reads them: ``gx2`` returns the free rows' |M^-1 x|^2 and ``inv_max``
    the largest eigenvalue of M^-1, or after the span a lower bound on it.

    A step with r < K picks, whose K x K Gram matrix cannot pass the
    package's rank rule, scores from the ``eigh`` of their r x r Gram form
    (:func:`_row_form`), O(N K r); the first pick takes no ``eigh``. On
    ``tools/pick_grid.py`` and on degenerate inputs these steps pick the
    rows a K x K eigenbasis picks, and their values differ from its values
    by at most 1.1e-15 relative before the K-th pick and 4e-10 at it,
    where mse's trace cancels terms of size K / ridge.
    From K picks until the chosen rows' Gram matrix passes the rule, which
    never happens on a matrix of rank below K, each step takes one
    ``eigh`` of it (:func:`_eigen_basis`) and scores in that eigenbasis,
    O(N K^2). The step whose ``eigh`` first passes the
    rule also forms Y = E M^-1 and q for every row E_i. Every later step
    downdates them by Sherman-Morrison for the newest pick p, in O(N K):
    with y = Y_p, a = 1 / (1 + q_p) and c = E y, Y -= a c y^T,
    q -= a c^2 and the trace falls by a |y|^2. On the grid of
    ``tools/pick_grid.py`` and on runs up to 2000 x 30 the rank-one steps
    pick the rows a fresh eigenbasis per step picks, and their trace values
    differ from its values by less than 1e-13 relative.

    The loop scores the rows times 2**-p, with p the binary exponent of the
    largest entry, and takes their ridge, so neither the ridge nor M^-1
    underflows or overflows however large or small the rows are. A power of
    two scales every product and sum exactly, so the picks are those of the
    unscaled rows wherever these stay in range. The trace, of the given
    ``degree`` of homogeneity in the rows, is mapped back exactly. An
    all-zero matrix, which has no ridge, raises ValueError.
    """
    m = as_sensing_matrix(psi)
    _check_count(algorithm, num_sensors, m.shape)
    top = float(np.abs(m.entries).max())
    if top == 0.0:
        raise ValueError(f"{algorithm} needs a matrix with a nonzero entry; every row is zero")
    p = math.frexp(top)[1]
    e = np.ldexp(m.entries, -p)
    norms2 = np.einsum("ij,ij->i", e, e)
    shift = _ridge(norms2, p)
    nonzero = norms2 > 0.0
    # Y = E M^-1, q and the trace of M^-1, once the chosen rows span
    y = q = None
    total = math.nan

    def objective(chosen, free):
        nonlocal y, q, total
        if y is None:
            b = e.take(chosen, axis=0)
            if len(chosen) < m.k:
                return score(*_row_form(b, e.take(free, axis=0), shift), norms2.take(free))
            inv, vec, spans = _eigen_basis(b.T @ b, shift)
            if not spans:
                y2 = e.take(free, axis=0) @ vec
                np.square(y2, out=y2)
                return score(y2 @ inv, float(inv.sum()), lambda: y2 @ (inv * inv), inv.max,
                             norms2.take(free))
            z = e @ vec
            y = (z * inv) @ vec.T
            q = np.square(z, out=z) @ inv
            total = float(inv.sum())
        else:
            # Sherman-Morrison for the newest pick
            yp = y[chosen[-1]].copy()
            a = 1.0 / (1.0 + float(q[chosen[-1]]))
            c = e @ yp
            ac = a * c
            y -= np.multiply.outer(ac, yp)
            q -= ac * c
            total -= a * float(yp @ yp)

        def gx2():
            rows = y.take(free, axis=0)
            return np.einsum("ij,ij->i", rows, rows)

        def inv_max():
            # The largest Rayleigh quotient q / |x|^2 of the rows, a lower
            # bound that rows in many directions bring close to the largest
            # eigenvalue. The spanning eigh's largest value bounds it from
            # above, but by the whole growth of the Gram matrix since, and
            # a tie band that wide swallowed real gaps between picks.
            return np.divide(q, norms2, out=np.zeros_like(q), where=nonzero).max()

        return score(q.take(free), total, gx2, inv_max, norms2.take(free))

    sel = _best_in(m.n, num_sensors, objective, minimize)
    # a trace value past float64 in the rows' own scale reads inf
    with np.errstate(over="ignore"):
        trace = np.ldexp(sel.objective_trace, degree * p)
    return replace(sel, objective_trace=tuple(trace.tolist()))


def _eigen_basis(g, shift):
    """Eigenvalues of ``(shift I + G)^-1``, its eigenvectors, and whether G passes the rank rule.

    G is a K x K Gram matrix. When it fails the package's rank rule, the
    directions the rule drops weigh exactly ``1 / shift``. A LAPACK failure
    raises ConvergenceError.
    """
    lam, vec = _eigen(g, vectors=True)
    # lam ascends; the rule reads a descending spectrum
    spans = not _rank_lost(lam[::-1])
    if not spans:
        lam[lam < RANK_RTOL * lam[-1]] = 0.0
    return 1.0 / (shift + lam), vec, spans


def _row_form(b, x, shift):
    """Scores of the rows ``x`` against r < K chosen rows ``b``, from their r x r Gram form.

    With M = shift I + B^T B, returns the arguments ``q, total, gx2,
    inv_max`` of a det or mse score (see :func:`_eigen_best_in`). The
    eigenvalues mu of B B^T that pass the rank rule, with eigenvectors U,
    are those of B^T B in the directions V = B^T U / sqrt(mu), and every
    other direction of M^-1 weighs 1 / shift. So with z = x V and the
    residual x - z V^T, q = sum z^2 / (shift + mu) + |x - z V^T|^2 / shift
    and |M^-1 x|^2 = sum z^2 / (shift + mu)^2 + |x - z V^T|^2 / shift^2.
    The residual is formed as a vector: |x|^2 - |z|^2 cancels for rows in
    the span of B. One ``eigh`` of order r, none when r = 0. A LAPACK
    failure raises ConvergenceError.
    """
    r, k = b.shape
    if r:
        mu, u = _eigen(b @ b.T, vectors=True)
        # mu ascends, so the rule keeps a tail of it, and none when mu <= 0
        low = int(np.searchsorted(mu, RANK_RTOL * mu[-1])) if mu[-1] > 0.0 else r
        mu = mu[low:]
        vec = b.T @ u[:, low:]
        vec /= np.sqrt(mu)
    else:
        mu, vec = np.empty(0), np.empty((k, 0))
    inv = 1.0 / (shift + mu)
    # 1 / shift, the largest eigenvalue of M^-1, as the K x K route reads it
    top = 1.0 / shift
    z = x @ vec
    res = z @ vec.T
    np.subtract(x, res, out=res)
    res2 = np.einsum("ij,ij->i", res, res)
    np.square(z, out=z)
    q = z @ inv + res2 * top
    total = float(inv.sum()) + (k - mu.size) * top
    return q, total, lambda: z @ (inv * inv) + res2 * (top * top), lambda: top


def greedy_mi(psi, num_sensors: int, opts: PlacementOptions | None = None) -> Selection:
    """Best-in greedy on mutual-information gain under a Gaussian field model.

    Location covariance is ``psi @ psi.T + sigma2 * I``. Each step adds the
    location maximizing the ratio of its conditional variance given the
    chosen set to its conditional variance given all other unchosen
    locations, both through ridged Schur complements; with
    ``M = cov[free, free] + ridge * I`` the latter is ``1 / (M^-1)_ii - ridge``.

    Both come from q = x^T (s I + G)^-1 x with s = sigma2 + ridge
    (Woodbury): the former is ``sigma2 + s q`` with G the Gram matrix of the
    chosen rows, the latter ``(sigma2 + ridge q) / (1 - q)`` with G that of
    the free rows. No N x N covariance is formed; each step takes two K x K
    eigenbases, O(N K^2), and memory stays O(N K). The ridge is that of
    :func:`greedy_det`, and so are its failures: a ridge that overflows
    float64 raises ValueError, and a LAPACK failure ConvergenceError. A
    conditional variance that is not positive and finite raises ValueError.
    """
    m = as_sensing_matrix(psi)
    opts = opts or PlacementOptions(algorithm="mi")
    _check_count("mi", num_sensors, m.shape)
    n = m.n
    with np.errstate(over="ignore"):
        norms2 = np.einsum("ij,ij->i", m.entries, m.entries)
    ridge = _ridge(norms2)
    sigma2 = opts.sigma2
    s = sigma2 + ridge
    e = m.entries

    def objective(chosen, free):
        x = e.take(free, axis=0)
        b = e.take(chosen, axis=0)
        inv, vec, _ = _eigen_basis(b.T @ b, s)
        z = x @ vec
        numer = sigma2 + s * (np.square(z, out=z) @ inv)
        inv, vec, _ = _eigen_basis(x.T @ x, s)
        z = x @ vec
        q = np.square(z, out=z) @ inv
        # q >= 1 only by rounding, on rows far larger than s
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = (sigma2 + ridge * q) / (1.0 - q)
        bad = np.flatnonzero(~((0.0 < numer) & (numer < np.inf) & (0.0 < denom) & (denom < np.inf)))
        if bad.size:
            raise ValueError(
                f"conditional variance at location {int(free[bad[0]])} is not positive and finite"
            )
        values = numer / denom
        return values, float(values.max())

    return _best_in(n, num_sensors, objective)


def greedy_coherence(psi, num_sensors: int) -> Selection:
    """Best-in greedy keeping the worst pairwise coherence of the chosen set low.

    Starts from the pair with the smallest coherence, then adds the row
    whose largest coherence against the chosen set is smallest. The start
    row comes from the pair scan framesense uses for its first pair. No
    N x N table is formed: each row's largest coherence against the chosen
    set is kept up to date from the newest pick alone, so each pick costs
    O(N K) and memory stays O(N K). The unit rows come from
    :func:`~framesense.linalg.row_normalize`, so a row it refuses raises
    its ValueError here.
    """
    m = as_sensing_matrix(psi)
    _check_count("coherence", num_sensors, m.shape)
    u = row_normalize(m).entries

    # coherences lie in [0, 1] and round in absolute terms, hence scale 1.
    # The lowest row in a least coherent pair starts; its first step then
    # adds the lowest partner, completing the lexicographically first pair.
    first = _first_best(_pair_scan(u, lambda b, out: np.negative(np.abs(b, out=out), out=out)), 1.0)
    worst = np.zeros(m.n)

    def objective(chosen, free):
        np.maximum(worst, np.minimum(np.abs(u @ u[chosen[-1]]), 1.0), out=worst)
        return worst[free], 1.0

    return _best_in(m.n, num_sensors, objective, minimize=True, start=(first,))


def random_placement(psi, num_sensors: int, seed: int = 0) -> Selection:
    """Uniform sample of distinct rows via a seeded Fisher-Yates shuffle."""
    m = as_sensing_matrix(psi)
    _check_count("random", num_sensors, m.shape)
    _check_seed(seed)
    n = m.n
    rng = philox_generator("placement/random", seed)
    idx = list(range(n))
    # swap t's target is drawn from [t, n), all in one call. That this gives
    # the draws of one call per swap is observed numpy behaviour, not an API
    # promise; test_pinned_draws holds the picks it gives
    for t, j in enumerate(rng.integers(np.arange(num_sensors), n).tolist()):
        idx[t], idx[j] = idx[j], idx[t]
    return Selection(tuple(sorted(idx[:num_sensors])), tuple(sorted(idx[num_sensors:])), ())


def exhaustive_oracle(psi, num_sensors: int, objective: str = "fp"):
    """Exact optimum over all subsets of the requested size.

    Minimizes either the frame potential (``"fp"``) or the unit-variance
    reconstruction error (``"mse"``). Both run the one lexicographic subset
    walk that :func:`framesense.bounds.delta_bound` and audits share; ties
    resolve to the lexicographically smallest subset. Each subset's rows are
    gathered once. The ``"fp"`` walk sums the squares of their smaller Gram
    form and does no eigen work; the ``"mse"`` walk takes one Gram product
    and ``eigvalsh`` call per subset, with the rank rule of
    :func:`framesense.linalg.mse`. The optimum's value is what
    :func:`framesense.linalg.frame_potential` or
    :func:`framesense.linalg.mse` returns for that subset, bit for bit, and
    no N x N array is formed.

    Returns
    -------
    (Selection, float)
        The optimal subset (ascending) and its objective value.

    Raises
    ------
    ValueError
        On instances with more than
        :data:`~framesense.linalg.ORACLE_SUBSET_LIMIT` subsets, on
        matrices whose ``num_sensors`` rows of largest norm, or of least
        norm (the least nonzero row when those are all zero), fail the
        range rule of :func:`framesense.linalg.frame_potential` (``"fp"``)
        or :func:`framesense.linalg.gram` (``"mse"``), which then bounds
        every subset's value, and (``"mse"``) when a subset's MSE passes
        float64, as in :func:`framesense.linalg.mse`.
    """
    m = as_sensing_matrix(psi)
    n = m.n
    _check_sensor_count("exhaustive_oracle", num_sensors, 1, n, m.shape)
    if objective not in ("fp", "mse"):
        raise ValueError(f"objective must be 'fp' or 'mse', got {objective!r}")
    fp_best, mse_best, _ = _walk_subsets(m, num_sensors, fp=objective == "fp", mse=objective == "mse")
    best_sub, best_val = fp_best if objective == "fp" else mse_best
    kept = set(best_sub)
    eliminated = tuple(i for i in range(n) if i not in kept)
    return Selection(best_sub, eliminated, (best_val,)), best_val


def run_placement(psi, num_sensors: int, opts: PlacementOptions) -> Selection:
    """Dispatch to the algorithm named in ``opts.algorithm``."""
    return _PLACERS[opts.algorithm].run(psi, num_sensors, opts)
