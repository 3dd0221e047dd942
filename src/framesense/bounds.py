"""Near-optimality certificates for frame-potential selections.

The quantities here bracket how far a greedy selection can sit from the
exhaustive optimum. ``gamma`` bounds the frame-potential ratio, the MSE
envelope converts a selection's frame potential and extreme eigenvalues into
a bracket on its reconstruction error, ``delta`` measures how tightly the
subset spectra concentrate, and ``eta`` combines the pieces into an MSE
approximation factor. A helper covers the asymptotic random-matrix scenario
where those factors have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _check_range,
    _check_sensor_count,
    _enumerable,
    _integer,
    _rank_lost,
    _real,
    _selection_indices,
    _walk_subsets,
    as_sensing_matrix,
    frame_potential,
    gram,
    sym_eigenvalues,
)
from .matio import FLOAT_FMT, _csv_header, csv_row

__all__ = [
    "BOUNDS_CSV_HEADER",
    "BoundsReport",
    "compute_bounds_report",
    "delta_bound",
    "fp_approx_factor",
    "l_min_max",
    "mse_approx_factor",
    "mse_envelope",
    "mp_scenario",
    "mp_scenario_report",
    "sharma_interval",
    "untf_reference",
]

def _rounding_allowance(k: int) -> float:
    """Relative slack an audit grants a computed value against its certificate.

    On a collapsed cell, where the selected rows' Gram matrix is a multiple
    of the identity, the MSE envelope is attained (lower = MSE = upper) and
    gamma can be too, so the two sides of a check differ only by rounding.
    With unit roundoff u = eps / 2, a K x K Gram matrix, and to first order:

    - the frame potential sums K^2 nonnegative squares pairwise, off by at
      most (1 + 2 log2 K) u <= 3 K u. Both sides of the gamma check sum the
      same Gram form by the one rule of ``frame_potential``, so a greedy
      selection that is optimal reads exactly the optimum's value;
    - each extreme eigenvalue from the backward-stable ``eigvalsh`` is off by
      about K u of the largest, which is relative on a collapsed cell; the
      envelope squares one, for 2 K u;
    - the MSE sums K reciprocals of such eigenvalues: K u from the
      eigenvalues, K u from the reciprocals and the sum;
    - the energies and quotients around them add a few u.

    That is about 7 K u; the allowance is 8 K u = 4 K eps. Rounding in the
    Gram entries themselves is not counted; on the +-1 rows where cells
    are seen to collapse it is zero. The allowance is capped at 1e-12, so
    a real miss is never forgiven: at K = 3 it is 2.7e-15, while a
    collapsed 12 x 3 bernoulli cell reads its lower bound 3e-16 above its
    MSE. Its one caller is :func:`_within_certificates`.
    """
    return min(4 * k * float(np.finfo(np.float64).eps), 1e-12)


def _within_certificates(report: BoundsReport, fp_greedy, fp_opt, mse_greedy) -> tuple:
    """The two certified inequalities of an audit cell, each up to :func:`_rounding_allowance`.

    Returns ``(fp_within_gamma, mse_within_bounds)``: whether the
    selection's frame potential is at most ``report.gamma`` times the
    optimum's, and whether its unit-variance MSE lies in the envelope
    ``[report.mse_bound_lower, report.mse_bound_upper]``. A check whose
    optimum is NaN, as past the enumeration guard, is not made and reads
    None; the envelope needs no optimum and is always checked.
    """
    slack = _rounding_allowance(report.k)
    fp_ok = None if math.isnan(fp_opt) else bool(fp_greedy <= report.gamma * fp_opt * (1.0 + slack))
    mse_ok = bool(report.mse_bound_lower * (1.0 - slack) <= mse_greedy
                  <= report.mse_bound_upper * (1.0 + slack))
    return fp_ok, mse_ok


def l_min_max(psi, num_sensors: int):
    """Extremal and mean selected energies at a given selection size.

    Returns ``(l_min, l_max, l_mean)`` where ``l_min``/``l_max`` are the sums
    of the ``num_sensors`` smallest/largest squared row norms and ``l_mean``
    is ``num_sensors / N`` times the total energy. Rows whose Gram matrix
    fails the range rule of :func:`~framesense.linalg.gram` raise
    ValueError.
    """
    m = as_sensing_matrix(psi)
    _check_sensor_count("l_min_max", num_sensors, 1, m.n, m.shape)
    with np.errstate(over="ignore"):
        sq = _check_range(np.sort(m.row_norms**2))
    l_min = float(np.sum(sq[:num_sensors]))
    l_max = float(np.sum(sq[m.n - num_sensors :]))
    l_mean = num_sensors / m.n * float(np.sum(sq))
    return l_min, l_max, l_mean


def fp_approx_factor(psi, num_sensors: int) -> float:
    """Multiplicative factor bounding greedy frame potential against the optimum.

    Computed as ``1 + (FP(psi) * K / l_min**2 - 1) / e`` on the original,
    un-normalized matrix. Always at least 1. Raises ValueError when the
    matrix fails the range rule of :func:`~framesense.linalg.frame_potential`,
    when ``l_min**2`` is zero (zero rows, or rows so small beside the
    others that the square underflows), or when the factor itself passes
    float64, as it can for rows of very different norms: it does not
    change when the whole matrix is scaled, only when its rows are.
    """
    m = as_sensing_matrix(psi)
    _check_sensor_count("fp_approx_factor", num_sensors, m.k, m.n, m.shape)
    fp = frame_potential(m)
    l_min, _, _ = l_min_max(m, num_sensors)
    if not l_min * l_min > 0.0:
        raise ValueError("zero rows make the approximation factor undefined")
    gamma = 1.0 + (fp * m.k / l_min**2 - 1.0) / math.e
    if gamma == math.inf:
        raise ValueError("approximation factor of the rows overflows float64; rescale the rows")
    return gamma


def mse_approx_factor(gamma: float, d: float, delta: float, l_min: float, l_max: float) -> float:
    """MSE approximation factor from its ingredients.

    ``gamma * ((d + delta) / (d - delta))**2 * l_max / l_min``. The bound is
    vacuous when the spectrum half-width ``delta`` reaches the center ``d``,
    and that case raises.
    """
    gamma, d, delta = _real("gamma", gamma), _real("d", d), _real("delta", delta)
    l_min, l_max = _real("l_min", l_min), _real("l_max", l_max)
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ValueError(f"gamma must be finite and at least 1, got {gamma}")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    if l_min <= 0.0 or l_max < l_min:
        raise ValueError(f"need 0 < l_min <= l_max, got l_min={l_min}, l_max={l_max}")
    if not d > delta:
        raise ValueError(f"bound is vacuous: spectrum center d={d} does not exceed delta={delta}")
    return gamma * ((d + delta) / (d - delta)) ** 2 * (l_max / l_min)


def mse_envelope(psi, sel, l_min: float, l_max: float):
    """Bracket on unit-variance MSE from a selection's frame potential.

    Returns ``(lower, upper)`` with
    ``lower = (K / l_max) * FP(sel) / lambda_max**2`` and
    ``upper = (K / l_min) * FP(sel) / lambda_min**2`` where the lambdas are
    the extreme eigenvalues of the selection's Gram matrix. A rank-deficient
    selection yields an infinite upper bound, and so does one whose
    ``lambda_min**2`` underflows float64; a fully degenerate one yields an
    infinite bracket. A selection that fails the range rule of
    :func:`~framesense.linalg.frame_potential` raises ValueError; no finite
    input raises ZeroDivisionError or OverflowError.
    """
    m = as_sensing_matrix(psi)
    l_min, l_max = _real("l_min", l_min), _real("l_max", l_max)
    if l_min <= 0.0 or l_max < l_min:
        raise ValueError(f"need 0 < l_min <= l_max, got l_min={l_min}, l_max={l_max}")
    fp_sel = frame_potential(m, sel)
    lam = sym_eigenvalues(gram(m, sel))
    largest = float(lam[0])
    smallest = float(lam[-1])
    if largest <= 0.0:
        return math.inf, math.inf
    lower = (m.k / l_max) * fp_sel / largest**2
    if _rank_lost(lam) or smallest**2 == 0.0:
        return lower, math.inf
    upper = (m.k / l_min) * fp_sel / smallest**2
    return lower, upper


def delta_bound(psi, num_sensors: int) -> float:
    """Tightest half-width of subset spectra around the mean-energy center.

    Walks every size-``num_sensors`` subset in the lexicographic walk that
    :func:`~framesense.placement.exhaustive_oracle` and audits share, with
    one gather, Gram product and ``eigvalsh`` call per subset, and returns
    the largest absolute deviation of any eigenvalue from ``l_mean / K``.
    Minimal by construction.

    Raises
    ------
    ValueError
        On instances with more than
        :data:`~framesense.linalg.ORACLE_SUBSET_LIMIT` subsets, the guard
        the exhaustive oracles share, on matrices whose ``num_sensors``
        rows of largest norm, or of least norm (the least nonzero row when
        those are all zero), fail the range rule of
        :func:`~framesense.linalg.gram`, which then bounds every subset's
        Gram matrix, and when a subset's MSE, which the shared walk takes,
        passes float64 as in :func:`~framesense.linalg.mse`.
    """
    m = as_sensing_matrix(psi)
    _check_sensor_count("delta_bound", num_sensors, 1, m.n, m.shape)
    _, _, lam_range = _walk_subsets(m, num_sensors, fp=False, spectrum=True)
    return _spectrum_delta(m, num_sensors, lam_range)


def _spectrum_delta(m, num_sensors: int, lam_range) -> float:
    """Largest deviation from ``l_mean / K`` of a walk's eigenvalue range.

    Rounding ``x - center`` is monotone in ``x``, so the extremes give the
    same float as the largest ``|lam - center|`` over every subset.
    """
    _, _, l_mean = l_min_max(m, num_sensors)
    center = l_mean / m.k
    low, high = lam_range
    return max(0.0, high - center, center - low)


def sharma_interval(values):
    """Bracket on the arithmetic-to-harmonic mean ratio of positive values.

    With m, M the extreme values and S the population standard deviation,
    the ratio A/H lies in
    ``[(M - S)**2 / (M (M - 2 S)), (m + S)**2 / (m (m + 2 S))]``.
    When ``M <= 2 S`` the printed lower form is undefined, and since A/H is
    never below 1 the lower bound is clamped to 1 in that case.
    """
    v = np.asarray(list(values), dtype=np.float64)
    if v.size < 2:
        raise ValueError("need at least two values")
    if not np.isfinite(v).all() or np.any(v <= 0.0):
        raise ValueError("values must be positive and finite")
    mean = float(v.mean())
    std = float(np.sqrt(np.mean((v - mean) ** 2)))
    small = float(v.min())
    big = float(v.max())
    upper = (small + std) ** 2 / (small * (small + 2.0 * std))
    if big > 2.0 * std:
        lower = (big - std) ** 2 / (big * (big - 2.0 * std))
    else:
        lower = 1.0
    return lower, upper


def untf_reference(num_sensors: int, k: int):
    """Frame potential, unit-variance MSE, and eigenvalue of a unit-norm tight frame.

    Returns ``(L**2 / K, K**2 / L, L / K)`` for L rows in K dimensions.
    """
    if _integer("num_sensors", num_sensors) < _integer("k", k, low=1):
        raise ValueError(f"need num_sensors >= k >= 1, got num_sensors={num_sensors}, k={k}")
    return (
        num_sensors**2 / k,
        k**2 / num_sensors,
        num_sensors / k,
    )


def mp_scenario(c1: float, c2: float):
    """Closed-form factors for the asymptotic Gaussian scenario.

    The scenario has Gaussian entries with K/L -> c1 and N/L -> c2, and
    needs ``0 < c1 < 1 < c2``. Returns
    ``(gamma, eta, spectrum_low, spectrum_high)`` where the spectrum of the scaled
    selected Gram matrix concentrates on
    ``sqrt(1 / c1) * (1 -+ sqrt(c1))**2`` and

    - ``gamma = 1 + (c2**2 - 1) / e``
    - ``eta = gamma * ((1 + sqrt(c1)) / (1 - sqrt(c1)))**4``

    Note: at (c1, c2) = (0.25, 6) the eta product evaluates to about 1124.
    Summaries of this construction sometimes quote a value near 50 for the
    same inputs; that figure does not follow from the expression above, so
    the computed product is reported as is. See :func:`mp_scenario_report`.
    """
    c1, c2 = _real("c1", c1), _real("c2", c2)
    if not (0.0 < c1 < 1.0 < c2):
        raise ValueError(f"need 0 < c1 < 1 < c2, got c1={c1}, c2={c2}")
    gamma = 1.0 + (c2**2 - 1.0) / math.e
    root = math.sqrt(c1)
    base = math.sqrt(1.0 / c1)
    spectrum_low = base * (1.0 - root) ** 2
    spectrum_high = base * (1.0 + root) ** 2
    eta = gamma * ((1.0 + root) / (1.0 - root)) ** 4
    return gamma, eta, spectrum_low, spectrum_high


def mp_scenario_report(c1: float, c2: float) -> str:
    """Flat key=value report for the asymptotic scenario factors.

    Includes a note line flagging that the eta value is the literal product
    of its factors, since quoted shorthand values for this construction do
    not always match it.
    """
    gamma, eta, spectrum_low, spectrum_high = mp_scenario(c1, c2)
    lines = [
        f"c1={FLOAT_FMT % c1}",
        f"c2={FLOAT_FMT % c2}",
        f"gamma={FLOAT_FMT % gamma}",
        f"eta={FLOAT_FMT % eta}",
        f"spectrum_low={FLOAT_FMT % spectrum_low}",
        f"spectrum_high={FLOAT_FMT % spectrum_high}",
        "note=eta is the literal product gamma*((1+sqrt(c1))/(1-sqrt(c1)))^4; "
        "at c1=0.25, c2=6 it evaluates to about 1124, not the figure of about 50 "
        "sometimes quoted for this configuration",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoundsReport:
    """All certificate quantities for one (matrix, selection size) instance.

    ``eta`` and ``delta`` are NaN when unavailable (subset enumeration too
    large, or the eta bound vacuous because ``d <= delta``). Serializes to a
    flat key=value text block and to a CSV row whose column order matches
    :data:`BOUNDS_CSV_HEADER`.
    """

    n: int
    k: int
    l: int
    gamma: float
    eta: float
    l_min: float
    l_max: float
    l_mean: float
    d: float
    delta: float
    mse_bound_lower: float
    mse_bound_upper: float

    def to_text(self) -> str:
        texts = self.to_csv_row().split(",")
        return "".join(f"{name}={text}\n" for name, text in zip(BOUNDS_CSV_HEADER.split(","), texts))

    def to_csv_row(self) -> str:
        return csv_row(self)


BOUNDS_CSV_HEADER = _csv_header(BoundsReport)


def compute_bounds_report(psi, num_sensors: int, sel, delta: float | None = None) -> BoundsReport:
    """Assemble a :class:`BoundsReport` for one instance.

    ``sel`` is the selection whose MSE envelope is reported, normally the
    greedy output at size ``num_sensors``; one of another size is refused
    with ValueError, as the energies and gamma of the report are those of
    ``num_sensors`` rows. ``delta`` is reported as given, so
    a caller that has already walked the subsets passes what it found (NaN
    for none); ``None`` runs :func:`delta_bound` when within the subset
    guard and gives NaN otherwise. ``eta`` is NaN whenever its bound would be
    vacuous or ``delta`` is unavailable.
    """
    m = as_sensing_matrix(psi)
    l_min, l_max, l_mean = l_min_max(m, num_sensors)
    size = len(_selection_indices(sel, m.n))
    if size != num_sensors:
        raise ValueError(f"sel holds {size} rows, but the report is for L = {num_sensors}")
    gamma = fp_approx_factor(m, num_sensors)
    d = l_mean / m.k
    if delta is None:
        delta = delta_bound(m, num_sensors) if _enumerable(m.n, num_sensors) else math.nan
    delta = _real("delta", delta)
    if math.isfinite(delta) and d > delta and l_min > 0.0:
        eta = mse_approx_factor(gamma, d, delta, l_min, l_max)
    else:
        eta = math.nan
    lower, upper = mse_envelope(m, sel, l_min, l_max)
    return BoundsReport(
        n=m.n,
        k=m.k,
        l=num_sensors,
        gamma=gamma,
        eta=eta,
        l_min=l_min,
        l_max=l_max,
        l_mean=l_mean,
        d=d,
        delta=delta,
        mse_bound_lower=lower,
        mse_bound_upper=upper,
    )
