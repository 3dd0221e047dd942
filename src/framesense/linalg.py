"""Dense numerics for row-selected sensing models.

Everything downstream (placement, bounds, experiment sweeps) is built on the
quantities defined here: Gram matrices of selected rows, their eigenvalues,
the frame potential, and the mean square error of least squares
reconstruction from the selection, in closed form. All arithmetic is
float64 and sized for desk-scale problems, meaning hundreds of candidate
rows and tens of columns.
"""

from __future__ import annotations

import math
import numbers
from itertools import combinations

import numpy as np

__all__ = [
    "ConvergenceError",
    "ORACLE_SUBSET_LIMIT",
    "RANK_RTOL",
    "SensingMatrix",
    "UNBOUNDED",
    "as_sensing_matrix",
    "frame_potential",
    "gram",
    "mse",
    "row_normalize",
    "sym_eigenvalues",
]

# An eigenvalue below RANK_RTOL times the largest one counts as rank loss.
RANK_RTOL = 1e-10

# Marker returned by mse() when the selection cannot identify the parameters.
UNBOUNDED = math.inf

_MIN_ROW_NORM = 1e-12

# Subset walks refuse to enumerate more subsets than this.
ORACLE_SUBSET_LIMIT = 10_000_000

# An MSE sums K reciprocals of at most 1 / lambda_min each, so it stays
# below half the largest float64 once lambda_min is at least K times this.
_MSE_FLOOR = 2.0 / np.finfo(np.float64).max


class ConvergenceError(RuntimeError):
    """The LAPACK eigenvalue routine failed to converge."""


class SensingMatrix:
    """An N x K model matrix whose rows are candidate sensing locations.

    Entries are copied into an immutable float64 array on construction, and
    the instance holds no other state, so it can be shared freely across
    threads. Rows are indexed from 0.

    Parameters
    ----------
    entries : array_like
        Two dimensional real array with N >= 1 rows and K >= 1 columns.
        Every entry must be finite.
    """

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"sensing matrix must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sensing matrix needs at least one row and one column, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("sensing matrix entries must all be finite")
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        """Read-only (N, K) float64 array."""
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    @property
    def k(self) -> int:
        return self._entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._entries.shape

    @property
    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every row, computed on each call."""
        return np.linalg.norm(self._entries, axis=1)

    def __repr__(self):
        return f"SensingMatrix(n={self.n}, k={self.k})"


def as_sensing_matrix(psi) -> SensingMatrix:
    """Coerce an array or SensingMatrix into a SensingMatrix."""
    if isinstance(psi, SensingMatrix):
        return psi
    return SensingMatrix(psi)


def _selection_indices(sel, n: int) -> np.ndarray:
    idx = np.asarray(list(sel))
    if idx.ndim != 1:
        raise ValueError("selection must be a flat collection of row indices")
    if idx.size == 0:
        raise ValueError("selection must contain at least one row index")
    # floats, strings and boolean masks are refused, not cast or truncated
    if idx.dtype.kind not in "iu":
        raise ValueError(f"selection must hold integer row indices, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if np.any((idx < 0) | (idx >= n)):
        raise IndexError(f"selection index out of range for {n} rows")
    # a set, not np.unique, which imports numpy.ma on first use and costs
    # more per call on the few-row selections that audits enumerate
    if len(set(idx.tolist())) != idx.size:
        raise ValueError("selection contains duplicate row indices")
    return idx


def gram(psi, sel) -> np.ndarray:
    """Gram matrix of the selected rows.

    Parameters
    ----------
    psi : SensingMatrix or array_like
        Candidate row matrix, N x K.
    sel : iterable of int
        Distinct row indices in [0, N); None selects every row.

    Returns
    -------
    numpy.ndarray
        The K x K float64 array ``Psi_sel.T @ Psi_sel``.

    Raises
    ------
    ValueError
        If the selected rows fail the range rule (:func:`_check_range`):
        the sum E of their squared norms, which bounds every Gram entry,
        must be 0 or lie in [2**-1022, inf).
    """
    block = _selected(psi, sel)
    return block.T @ block


def sym_eigenvalues(t) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by LAPACK (``numpy.linalg.eigvalsh``).

    Only eigenvalues are produced, no vectors. A LAPACK convergence failure
    raises :class:`ConvergenceError`.

    Parameters
    ----------
    t : array_like
        Real square matrix, finite and symmetric to within
        ``1e-8 * (1 + max|t|)``; anything else raises ValueError.

    Returns
    -------
    numpy.ndarray
        Read-only 1-D float64 array of the eigenvalues, sorted descending.
    """
    a = np.asarray(t, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must all be finite")
    scale = 1.0 + float(np.abs(a).max(initial=0.0))
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    lam = _eigen(a)[::-1]
    lam.setflags(write=False)
    return lam


def _eigen(a, vectors: bool = False):
    """``numpy.linalg.eigvalsh(a)``, or ``eigh(a)`` with ``vectors``, in ascending order.

    The one place a LAPACK failure (``numpy.linalg.LinAlgError``) becomes
    :class:`ConvergenceError`. Both routines are looked up at call time, so
    one replaced on ``numpy.linalg`` is the one that runs.
    """
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation did not converge: {exc}") from exc


def frame_potential(psi, sel=None) -> float:
    """Frame potential of the selected rows.

    The sum of squared pairwise inner products over the selection, diagonal
    terms included. ``sel=None`` uses every row. Rows that fail the range
    rule (:func:`_check_range`) raise ValueError: with E the sum of their
    squared norms, the frame potential is at most E**2, and 2 E**2 must be
    0 or lie in [2**-1022, inf).
    """
    return _frame_potential(_selected(psi, sel, fp=True))


def _selected(psi, sel, fp: bool = False) -> np.ndarray:
    """The rows of ``psi`` that ``sel`` picks, every row for None, once they pass the range rule.

    The rule (:func:`_check_range`) is checked for their Gram matrix, or
    with ``fp`` for their frame potential. Serves :func:`gram` and
    :func:`frame_potential`.
    """
    m = as_sensing_matrix(psi)
    block = m.entries if sel is None else m.entries[_selection_indices(sel, m.n)]
    _check_range(np.einsum("ij,ij->i", block, block), fp)
    return block


def _frame_potential(block, g=None) -> float:
    """The one frame-potential rule: the sum of squares of the smaller Gram form of ``block``.

    Both forms, ``block @ block.T`` (L x L) and ``block.T @ block`` (K x K),
    have the same squared Frobenius norm; the L x L one is used when
    L <= K. ``g``, when given, is the K x K form the caller already formed.
    """
    if block.shape[0] <= block.shape[1]:
        g = block @ block.T
    elif g is None:
        g = block.T @ block
    return float((g * g).sum())


def mse(psi, sel, sigma2=1.0) -> float:
    """Mean square error of least squares reconstruction from the selection.

    Equals sigma2 times the sum of reciprocal eigenvalues of the selection's
    Gram matrix. Returns :data:`UNBOUNDED` (IEEE infinity) when the Gram
    matrix is rank deficient, i.e. when any eigenvalue falls below
    ``RANK_RTOL`` times the largest one; callers must handle that marker.
    The Gram matrix is :func:`gram`'s, so rows that fail its range rule
    raise ValueError, and so does a full-rank spectrum whose MSE may pass
    float64 (smallest eigenvalue below K times 2 / the largest float64),
    so UNBOUNDED always means lost rank.

    Parameters
    ----------
    psi : SensingMatrix or array_like
    sel : iterable of int
        Distinct row indices.
    sigma2 : float, optional
        Noise variance, positive and finite; default 1.0.
    """
    return _check_positive(sigma2) * _unit_mse(sym_eigenvalues(gram(psi, sel)))


def _integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int; ValueError, naming it, unless it is an integer and not a bool.

    With ``low``, also unless it is at least ``low``. The one rule of every
    count, index and seed a caller passes in, config files included.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _real(name: str, value) -> float:
    """``value`` as a float; ValueError, naming it, unless it is a real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _flag(name: str, value) -> None:
    """ValueError, naming it, unless ``value`` is ``True`` or ``False``."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def _check_positive(value, name: str = "sigma2") -> float:
    """``value`` as a float; ValueError, naming it, unless it is a positive, finite real.

    The one rule for a noise variance ``sigma2`` and for a matrix's
    ``entry_scale``.
    """
    value = _real(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _check_seed(seed, name: str = "seed") -> None:
    """ValueError, naming it, unless ``seed`` is an unsigned 64-bit integer."""
    if not 0 <= _integer(name, seed) < 2**64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {seed}")


def _check_sensor_count(who: str, num_sensors, low: int, high: int, shape) -> None:
    """ValueError, naming ``who``, unless ``num_sensors`` is an integer in ``[low, high]``.

    The one range message of every placer, certificate and grid check;
    ``shape`` is the (N, K) of the matrix the range belongs to.
    """
    if not low <= _integer(f"{who} sensor count", num_sensors) <= high:
        span = f" in [{low}, {high}]" if low <= high else " but accepts none"
        raise ValueError(f"{who} needs a sensor count{span} for a {shape[0]} x {shape[1]} "
                         f"matrix, got {num_sensors}")


def _enumerable(n: int, size: int) -> bool:
    """The enumeration guard: whether all size-``size`` subsets of ``n`` rows may be walked.

    Reads :data:`ORACLE_SUBSET_LIMIT` at call time.
    """
    return math.comb(n, size) <= ORACLE_SUBSET_LIMIT


def _check_range(energies, fp: bool = False):
    """``energies``, once rows with these squared norms pass the range rule; else ValueError.

    The one rule of whether a row set's Gram matrix, or with ``fp`` its
    frame potential, fits float64. With E the sum of ``energies``, every
    Gram entry is at most E in magnitude and the frame potential at most
    E**2. The rule asks E, or with ``fp`` 2 E**2, to lie in [2**-1022,
    inf), from the smallest normal float64 on: the factor 2 is the room
    framesense's gains need, which reach twice the frame potential. Rows
    that are all zero (E = 0) pass.
    """
    with np.errstate(over="ignore"):
        energy = float(np.sum(energies))
    bound = 2.0 * energy * energy if fp else energy
    if energy > 0.0 and not math.ldexp(1.0, -1022) <= bound < math.inf:
        raise ValueError(f"{'frame potential' if fp else 'Gram matrix'} of the rows "
                         f"{'over' if energy > 1.0 else 'under'}flows float64; rescale the matrix")
    return energies


def _rank_lost(lam) -> bool:
    """The rank rule: whether a descending Gram spectrum has lost rank.

    True when the largest eigenvalue is not positive or the smallest falls
    below :data:`RANK_RTOL` times it.
    """
    return lam[0] <= 0.0 or lam[-1] < RANK_RTOL * lam[0]


def _unit_mse(lam) -> float:
    """Unit-variance MSE from a descending Gram spectrum, or UNBOUNDED.

    A full-rank spectrum whose MSE may pass float64 raises ValueError, so
    an MSE read as infinite always means lost rank.
    """
    if _rank_lost(lam):
        return UNBOUNDED
    if lam[-1] < lam.size * _MSE_FLOOR:
        raise ValueError("MSE of the rows overflows float64; rescale the matrix")
    return float((1.0 / lam).sum())


def _walk_subsets(m: SensingMatrix, size: int, fp=False, mse=False, spread=False):
    """One pass over every size-``size`` row subset, in lexicographic order.

    Serves the exhaustive oracles and the spectrum-concentration search, so
    an audit cell enumerates its subsets once. Per subset it gathers the
    rows once; when ``mse`` or ``spread`` is set it forms ``block.T @ block``
    and takes one ``numpy.linalg.eigvalsh``, and when ``fp`` is set it sums
    the squares of the smaller Gram form by :func:`frame_potential`'s rule,
    reusing that K x K Gram matrix when L > K. An FP-only walk does no eigen
    work, a walk without ``mse`` takes no MSE, and no walk forms an N x N
    array. Frame potentials, eigenvalues and MSEs equal those of
    ``frame_potential(m, sub)``, ``sym_eigenvalues(gram(m, sub))`` and
    ``mse(m, sub)`` bit for bit; the checks those functions make on every
    call are replaced by one check per walk. A LAPACK failure raises
    :class:`ConvergenceError`.

    Returns ``(fp_best, mse_best, lam_range)``. ``fp_best`` and ``mse_best``
    are ``(subset, value)`` pairs of least frame potential and least
    unit-variance MSE, where a strict ``<`` keeps exact ties on the
    lexicographically first subset. ``lam_range``, asked for by
    ``spread``, is ``(smallest, largest)`` eigenvalue over all subsets.
    Whatever was not asked for is None.

    Raises
    ------
    ValueError
        If there are more than :data:`ORACLE_SUBSET_LIMIT` subsets (the
        enumeration guard, :func:`_enumerable`); if the ``size`` rows of
        largest norm, whose energy no subset exceeds, or the ``size`` of
        least norm (the least nonzero row when those are all zero), whose
        energy no subset with any falls below, fail the range rule
        (:func:`_check_range`) for a frame potential (``fp``) or else a
        Gram matrix; or, with ``mse``, if a subset's MSE passes float64, as
        in :func:`mse`.
    """
    if not _enumerable(m.n, size):
        raise ValueError(f"C({m.n}, {size}) = {math.comb(m.n, size)} subsets exceeds the "
                         f"enumeration guard of {ORACLE_SUBSET_LIMIT}")
    e = m.entries
    energies = np.sort(np.einsum("ij,ij->i", e, e))
    # no subset holds more energy than its size largest rows, and none with
    # nonzero energy less than its size smallest or, when those are all
    # zero, its smallest nonzero row
    _check_range(energies[m.n - size :], fp)
    _check_range(energies[:size] if energies[size - 1] > 0.0 else energies[energies > 0.0][:1], fp)
    fp_best = mse_best = g = None
    low, high = math.inf, -math.inf
    for sub in combinations(range(m.n), size):
        block = e.take(sub, axis=0)
        if mse or spread:
            g = block.T @ block
            lam = _eigen(g)[::-1]
        if mse:
            val = _unit_mse(lam)
            if mse_best is None or val < mse_best[1]:
                mse_best = sub, val
        if spread:
            val = float(lam[-1])
            if val < low:
                low = val
            val = float(lam[0])
            if val > high:
                high = val
        if fp:
            val = _frame_potential(block, g)
            if fp_best is None or val < fp_best[1]:
                fp_best = sub, val
    return fp_best, mse_best, (low, high) if spread else None


def row_normalize(psi) -> SensingMatrix:
    """Copy of the matrix with every row scaled to unit Euclidean norm.

    Raises
    ------
    ValueError
        Naming the first offending row if any norm is at or below 1e-12, or
        overflows float64.
    """
    m = as_sensing_matrix(psi)
    return SensingMatrix(m.entries / _unit_row_norms(m)[:, None])


def _unit_row_norms(m: SensingMatrix) -> np.ndarray:
    """Row norms of ``m``, once every row can be scaled to unit norm.

    ValueError names the first row whose norm is at or below 1e-12 or
    overflows float64.
    """
    with np.errstate(over="ignore"):
        norms = m.row_norms
    bad = np.flatnonzero(~((norms > _MIN_ROW_NORM) & (norms < math.inf)))
    if bad.size:
        why = "too small" if norms[bad[0]] <= _MIN_ROW_NORM else "too large"
        raise ValueError(f"row {bad[0]} has norm {norms[bad[0]]:.3e}, {why} to normalize")
    return norms
