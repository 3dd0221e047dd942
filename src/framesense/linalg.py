"""Dense numerics for row-selected sensing models.

Everything downstream (placement, bounds, experiment sweeps) is built on the
quantities defined here: Gram matrices of selected rows, their eigenvalues,
the frame potential, and the least squares reconstruction together with its
mean square error. All arithmetic is float64 and sized for desk-scale
problems, meaning hundreds of candidate rows and tens of columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "GramMatrix",
    "NoiseModel",
    "RANK_RTOL",
    "SensingMatrix",
    "Spectrum",
    "UNBOUNDED",
    "as_sensing_matrix",
    "coherence",
    "frame_potential",
    "gram",
    "least_squares",
    "mse",
    "row_normalize",
    "sym_eigenvalues",
]

# An eigenvalue below RANK_RTOL times the largest one counts as rank loss.
RANK_RTOL = 1e-10

# Marker returned by mse() when the selection cannot identify the parameters.
UNBOUNDED = math.inf

_MIN_ROW_NORM = 1e-12


class ConvergenceError(RuntimeError):
    """The LAPACK eigenvalue routine failed to converge."""


class SensingMatrix:
    """An N x K model matrix whose rows are candidate sensing locations.

    Entries are copied into an immutable float64 array on construction, so a
    single instance can be shared freely across threads. Row norms are
    computed once and cached. Rows are indexed from 0.

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
        self._row_norms = None

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

    def row(self, i: int) -> np.ndarray:
        """Row i as a read-only length-K vector."""
        if not 0 <= i < self.n:
            raise IndexError(f"row index {i} out of range for {self.n} rows")
        return self._entries[i]

    @property
    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every row, cached after the first call."""
        if self._row_norms is None:
            norms = np.linalg.norm(self._entries, axis=1)
            norms.setflags(write=False)
            self._row_norms = norms
        return self._row_norms

    def __repr__(self):
        return f"SensingMatrix(n={self.n}, k={self.k})"


def as_sensing_matrix(psi) -> SensingMatrix:
    """Coerce an array or SensingMatrix into a SensingMatrix."""
    if isinstance(psi, SensingMatrix):
        return psi
    return SensingMatrix(psi)


class GramMatrix:
    """Symmetric K x K product of a selected row block with itself.

    Symmetry is exact by construction: the upper triangle of the input is
    taken as authoritative and mirrored, so ``entries[i, j] == entries[j, i]``
    holds bitwise. Inputs that are not symmetric to within a loose tolerance
    are rejected as caller errors.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"gram matrix must be square, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("gram matrix entries must all be finite")
        scale = 1.0 + float(np.abs(a).max(initial=0.0))
        if float(np.abs(a - a.T).max(initial=0.0)) > 1e-8 * scale:
            raise ValueError("gram matrix input is not symmetric")
        upper = np.triu(a)
        sym = upper + upper.T
        sym[np.diag_indices_from(sym)] = np.diag(a)
        sym.setflags(write=False)
        self._entries = sym

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def order(self) -> int:
        return self._entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self._entries))

    def __repr__(self):
        return f"GramMatrix(order={self.order})"


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. zero-mean measurement noise with common variance sigma2."""

    sigma2: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a Gram matrix, sorted descending, plus summary stats.

    ``harmonic_mean`` is NaN when any eigenvalue is nonpositive, since the
    harmonic mean is only meaningful for a positive spectrum. ``std_dev``
    uses the population convention (divide by K).
    """

    eigenvalues: np.ndarray
    harmonic_mean: float
    arithmetic_mean: float
    std_dev: float
    smallest: float
    largest: float

    @classmethod
    def from_eigenvalues(cls, values) -> "Spectrum":
        lam = np.sort(np.asarray(values, dtype=np.float64))[::-1].copy()
        lam.setflags(write=False)
        mean = float(lam.mean())
        std = float(np.sqrt(np.mean((lam - mean) ** 2)))
        if lam.size and np.all(lam > 0.0):
            harmonic = float(lam.size / np.sum(1.0 / lam))
        else:
            harmonic = math.nan
        return cls(lam, harmonic, mean, std, float(lam[-1]), float(lam[0]))


def _selection_indices(sel, n: int) -> np.ndarray:
    idx = np.asarray(list(sel), dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("selection must be a flat collection of row indices")
    if idx.size == 0:
        raise ValueError("selection must contain at least one row index")
    if np.any((idx < 0) | (idx >= n)):
        raise IndexError(f"selection index out of range for {n} rows")
    if np.unique(idx).size != idx.size:
        raise ValueError("selection contains duplicate row indices")
    return idx


def gram(psi, sel) -> GramMatrix:
    """Gram matrix of the selected rows.

    Parameters
    ----------
    psi : SensingMatrix or array_like
        Candidate row matrix, N x K.
    sel : iterable of int
        Distinct row indices in [0, N).

    Returns
    -------
    GramMatrix
        The K x K matrix ``Psi_sel.T @ Psi_sel`` with exact symmetry.
    """
    m = as_sensing_matrix(psi)
    idx = _selection_indices(sel, m.n)
    block = m.entries[idx]
    return GramMatrix(block.T @ block)


def sym_eigenvalues(t) -> Spectrum:
    """Eigenvalues of a symmetric matrix by LAPACK (``numpy.linalg.eigvalsh``).

    Only eigenvalues are produced, no vectors. A LAPACK convergence failure
    raises :class:`ConvergenceError`.

    Parameters
    ----------
    t : GramMatrix or array_like
        Real symmetric matrix.

    Returns
    -------
    Spectrum
        Eigenvalues sorted descending with summary statistics.
    """
    g = t if isinstance(t, GramMatrix) else GramMatrix(t)
    try:
        lam = np.linalg.eigvalsh(g.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation did not converge: {exc}") from exc
    return Spectrum.from_eigenvalues(lam)


def frame_potential(psi, sel=None) -> float:
    """Frame potential of the selected rows.

    The sum of squared pairwise inner products over the selection, diagonal
    terms included. ``sel=None`` uses every row.
    """
    m = as_sensing_matrix(psi)
    if sel is None:
        block = m.entries
    else:
        block = m.entries[_selection_indices(sel, m.n)]
    # Both Gram forms have the same squared Frobenius norm; use the smaller.
    if block.shape[0] <= block.shape[1]:
        g = block @ block.T
    else:
        g = block.T @ block
    return float(np.sum(g * g))


def _sigma2(noise) -> float:
    if isinstance(noise, NoiseModel):
        return noise.sigma2
    value = float(noise)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"sigma2 must be positive and finite, got {value}")
    return value


def mse(psi, sel, noise=1.0) -> float:
    """Mean square error of least squares reconstruction from the selection.

    Equals sigma2 times the sum of reciprocal eigenvalues of the selection's
    Gram matrix. Returns :data:`UNBOUNDED` (IEEE infinity) when the Gram
    matrix is rank deficient, i.e. when any eigenvalue falls below
    ``RANK_RTOL`` times the largest one; callers must handle that marker.

    Parameters
    ----------
    psi : SensingMatrix or array_like
    sel : iterable of int
        Distinct row indices.
    noise : NoiseModel or float, optional
        Noise variance, default 1.0.
    """
    sigma2 = _sigma2(noise)
    lam = sym_eigenvalues(gram(psi, sel)).eigenvalues
    if lam[0] <= 0.0 or np.any(lam < RANK_RTOL * lam[0]):
        return UNBOUNDED
    return sigma2 * float(np.sum(1.0 / lam))


def least_squares(psi, sel, f) -> np.ndarray:
    """Least squares parameter estimate from measurements on selected rows.

    Solves the selected block directly with ``numpy.linalg.lstsq`` (an SVD),
    so accuracy follows the block's condition number rather than its
    square, as forming the normal equations would. The measurement vector
    ``f`` is ordered like ``sel``.

    Raises
    ------
    ValueError
        If the selection's Gram matrix is rank deficient (an eigenvalue, i.e.
        a squared singular value of the block, below ``RANK_RTOL`` times the
        largest), or the measurement length does not match the selection
        size.
    """
    m = as_sensing_matrix(psi)
    idx = _selection_indices(sel, m.n)
    rhs = np.asarray(f, dtype=np.float64)
    if rhs.shape != (idx.size,):
        raise ValueError(
            f"measurement vector has shape {rhs.shape}, expected ({idx.size},)"
        )
    if not np.isfinite(rhs).all():
        raise ValueError("measurements must all be finite")
    solution, _, _, sv = np.linalg.lstsq(m.entries[idx], rhs, rcond=None)
    lam = sv**2
    if idx.size < m.k or lam[0] <= 0.0 or lam[-1] < RANK_RTOL * lam[0]:
        raise ValueError("selection is rank deficient; parameters are not identifiable")
    return solution


def row_normalize(psi) -> SensingMatrix:
    """Copy of the matrix with every row scaled to unit Euclidean norm.

    Raises
    ------
    ValueError
        Naming the first offending row if any norm is at or below 1e-12.
    """
    m = as_sensing_matrix(psi)
    norms = m.row_norms
    bad = np.flatnonzero(norms <= _MIN_ROW_NORM)
    if bad.size:
        raise ValueError(
            f"row {int(bad[0])} has norm {norms[bad[0]]:.3e}, too small to normalize"
        )
    return SensingMatrix(m.entries / norms[:, None])


def coherence(psi, i: int, j: int) -> float:
    """Normalized absolute inner product of rows i and j, clipped to [0, 1]."""
    m = as_sensing_matrix(psi)
    for idx in (i, j):
        if not 0 <= idx < m.n:
            raise IndexError(f"row index {idx} out of range for {m.n} rows")
    norms = m.row_norms
    if norms[i] <= _MIN_ROW_NORM or norms[j] <= _MIN_ROW_NORM:
        bad = i if norms[i] <= _MIN_ROW_NORM else j
        raise ValueError(f"row {bad} has near-zero norm, coherence undefined")
    value = abs(float(m.entries[i] @ m.entries[j])) / (float(norms[i]) * float(norms[j]))
    return min(value, 1.0)
