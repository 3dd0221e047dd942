"""Slow reference implementations used to cross-check the library.

Everything here is written the dumb way on purpose: triple loops, full
recomputation, characteristic-polynomial root finding. None of it shares
code with the package under test.
"""

import itertools
from fractions import Fraction

import numpy as np


def gram_oracle(psi, selected):
    """Entry-by-entry Gram matrix of the selected rows."""
    psi = np.asarray(psi, dtype=float)
    k = psi.shape[1]
    t = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            acc = 0.0
            for i in selected:
                acc += psi[i, a] * psi[i, b]
            t[a, b] = acc
    return t


def _char_poly(t, lam):
    n = t.shape[0]
    return float(np.linalg.det(t - lam * np.eye(n)))


def eig_oracle(t, grid_points=4000, tol=1e-12):
    """Eigenvalues of a symmetric matrix via bisection on det(T - lam I).

    Brackets are Gershgorin bounds; sign changes of the characteristic
    polynomial on a fine grid are refined by bisection. Assumes distinct
    eigenvalues (fine for the random matrices used in tests).
    """
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    radii = np.sum(np.abs(t), axis=1) - np.abs(np.diag(t))
    lo = float(np.min(np.diag(t) - radii)) - 1e-9
    hi = float(np.max(np.diag(t) + radii)) + 1e-9
    grid = np.linspace(lo, hi, grid_points)
    vals = [_char_poly(t, g) for g in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb < 0.0:
            x0, x1, f0 = a, b, fa
            while x1 - x0 > tol * max(1.0, abs(x0)):
                mid = 0.5 * (x0 + x1)
                fm = _char_poly(t, mid)
                if fm == 0.0:
                    x0 = x1 = mid
                    break
                if f0 * fm < 0.0:
                    x1 = mid
                else:
                    x0, f0 = mid, fm
            roots.append(0.5 * (x0 + x1))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    roots.sort(reverse=True)
    if len(roots) != n:
        raise RuntimeError(f"bisection found {len(roots)} of {n} eigenvalues")
    return np.array(roots)


def frame_potential_oracle(psi, selected):
    """FP as the plain double sum over row inner products."""
    psi = np.asarray(psi, dtype=float)
    acc = 0.0
    for i in selected:
        for j in selected:
            acc += float(np.dot(psi[i], psi[j])) ** 2
    return acc


def naive_framesense(psi, num_sensors, normalize_rows=True):
    """Worst-out greedy that recomputes FP from scratch for every candidate.

    Returns the elimination order (list of row indices).
    """
    psi = np.asarray(psi, dtype=float)
    n = psi.shape[0]
    if normalize_rows:
        psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    remaining = list(range(n))
    eliminated = []

    # first step removes the pair with the largest squared inner product
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            v = float(np.dot(psi[i], psi[j])) ** 2
            if best is None or v > best[0]:
                best = (v, i, j)
    _, i, j = best
    eliminated.extend([i, j])
    remaining.remove(i)
    remaining.remove(j)

    while len(remaining) > num_sensors:
        best = None
        for r in remaining:
            rest = [q for q in remaining if q != r]
            # from-scratch FP of the survivors; no state carried across steps
            block = psi[rest]
            fp = float(np.sum((block @ block.T) ** 2))
            if best is None or fp < best[0]:
                best = (fp, r)
        _, r = best
        eliminated.append(r)
        remaining.remove(r)
    return eliminated


def best_subset(psi, size, objective):
    """Exhaustive minimizer of objective(subset) over all subsets of rows."""
    n = np.asarray(psi).shape[0]
    best_val = None
    best_sub = None
    for sub in itertools.combinations(range(n), size):
        val = objective(sub)
        if best_val is None or val < best_val:
            best_val = val
            best_sub = sub
    return best_sub, best_val


def mse_oracle(psi, selected, sigma2=1.0):
    """MSE via explicit eigendecomposition of the oracle Gram matrix."""
    t = gram_oracle(psi, selected)
    lam = eig_oracle(t)
    if np.min(lam) < 1e-10 * max(np.max(lam), 0.0) or np.min(lam) <= 0.0:
        return float("inf")
    return sigma2 * float(np.sum(1.0 / lam))


def exact_framesense(psi, num_sensors):
    """Worst-out greedy on an integer matrix in exact integer arithmetic.

    The first move removes the lexicographically first pair (i, j), i < j,
    with the largest squared inner product; every later move removes the
    lowest-index row with the largest frame-potential drop, recomputed from
    scratch. Row normalization scales every squared inner product by the
    same factor when all rows share one norm (as for +-1 entries), so the
    result then also stands for the normalized run. Returns the elimination
    order (list of row indices).
    """
    a = np.asarray(psi)
    if not np.array_equal(a, np.round(a)):
        raise ValueError("exact_framesense needs an integer matrix")
    a = a.astype(np.int64)
    g2 = (a @ a.T) ** 2
    n = a.shape[0]

    # np.argmax returns the first maximum; on exact integers that is the
    # row-major, i.e. lexicographic, first maximizing pair
    iu, ju = np.triu_indices(n, 1)
    p = int(np.argmax(g2[iu, ju]))
    eliminated = [int(iu[p]), int(ju[p])]
    remaining = np.array([q for q in range(n) if q not in eliminated])

    while remaining.size > num_sensors:
        sub = g2[np.ix_(remaining, remaining)]
        # drop of FP when a row leaves: both cross terms plus the diagonal
        drops = 2 * sub.sum(axis=1) - np.diag(sub)
        pos = int(np.argmax(drops))
        eliminated.append(int(remaining[pos]))
        remaining = np.delete(remaining, pos)
    return eliminated


def exact_best_in(psi, num_sensors, objective, ridge):
    """Determinant or error-trace greedy in exact rational arithmetic.

    Each step adds the lowest-index row that maximizes the determinant
    (``objective="det"``) or minimizes the trace of the inverse
    (``objective="mse"``) of ``ridge * I`` plus the Gram matrix of the
    chosen rows, every candidate's matrix inverted anew by
    Gauss-Jordan elimination over fractions. Float entries and the ridge are
    taken at their exact binary values. Returns the pick order.
    """
    a = [[Fraction(float(v)) for v in row] for row in np.asarray(psi)]
    k = len(a[0])
    gram = [[Fraction(ridge) * (r == c) for c in range(k)] for r in range(k)]
    free = list(range(len(a)))
    chosen = []
    for _ in range(num_sensors):
        best = None
        for i in free:
            x = a[i]
            det, inv = _det_and_inverse([[gram[r][c] + x[r] * x[c] for c in range(k)] for r in range(k)])
            val = det if objective == "det" else -sum(inv[j][j] for j in range(k))
            # strict comparison keeps the lowest index among exact ties
            if best is None or val > best[0]:
                best = (val, i)
        x = a[best[1]]
        gram = [[gram[r][c] + x[r] * x[c] for c in range(k)] for r in range(k)]
        chosen.append(best[1])
        free.remove(best[1])
    return chosen


def _det_and_inverse(m):
    n = len(m)
    rows = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(m)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    return det, [row[n:] for row in rows]
