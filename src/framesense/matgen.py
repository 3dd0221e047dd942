"""Reproducible test-matrix families.

Random families draw from a counter-based Philox stream keyed by
(family, seed, N, K), so the same spec yields the same matrix on any
platform and under any thread schedule. Gaussian entries are produced by
the Box-Muller transform applied to that stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SensingMatrix, _check_positive, _check_seed, _integer, _real, row_normalize
from .seeding import philox_generator

__all__ = ["FAMILIES", "GeneratorSpec", "generate"]

FAMILIES = (
    "gaussian",
    "gaussian_row_normalized",
    "random_tight_frame",
    "bernoulli",
    "dct_frame",
    "stacked_scaled",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one test matrix.

    ``scale`` is the duplicate-block factor used only by ``stacked_scaled``
    and must exceed 1 there. ``entry_scale`` multiplies raw Gaussian draws;
    families that renormalize rows or columns, or that fix entries to a
    lattice, ignore it.
    """

    family: str
    n: int
    k: int
    seed: int = 0
    scale: float | None = None
    entry_scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        _integer("n", self.n, low=1)
        _integer("k", self.k, low=1)
        _check_seed(self.seed)
        _check_positive(self.entry_scale, "entry_scale")
        if self.family == "stacked_scaled":
            if self.n % 2 != 0:
                raise ValueError("stacked_scaled needs an even number of rows")
            if self.scale is None or not 1.0 < _real("scale", self.scale) < math.inf:
                raise ValueError(f"stacked_scaled needs scale > 1, got {self.scale}")
        elif self.scale is not None:
            raise ValueError(f"scale only applies to stacked_scaled, got family {self.family!r}")
        if self.family == "random_tight_frame" and self.n <= self.k:
            raise ValueError("random_tight_frame needs more rows than columns")
        if self.family == "dct_frame" and self.k > self.n:
            raise ValueError("dct_frame needs k <= n")


def _box_muller(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normals from uniform draws, classic pairing."""
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1], keeps the log finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def _gaussian_block(spec: GeneratorSpec, n: int, k: int) -> np.ndarray:
    rng = philox_generator(f"matgen/{spec.family}", spec.seed, spec.n, spec.k)
    block = _box_muller(rng, n * k).reshape(n, k)
    return block * spec.entry_scale


def _mgs_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormalize columns by modified Gram-Schmidt."""
    q = a.copy()
    for j in range(q.shape[1]):
        v = q[:, j]
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        norm = float(np.linalg.norm(v))
        if norm <= 1e-12:
            raise ValueError(f"column {j} became degenerate during orthonormalization")
        q[:, j] = v / norm
    return q


def _dct_rows(n: int, k: int) -> np.ndarray:
    rows = np.arange(n)[:, None]
    cols = np.arange(k)[None, :]
    block = np.cos(np.pi * (2 * rows + 1) * cols / (2 * n))
    return block / np.linalg.norm(block, axis=0, keepdims=True)


def generate(spec: GeneratorSpec) -> SensingMatrix:
    """Materialize the matrix described by ``spec``.

    The result is fully determined by (family, seed, n, k) plus the family
    specific scale fields; ``dct_frame`` ignores the seed entirely.
    """
    family = spec.family
    if family == "gaussian":
        return SensingMatrix(_gaussian_block(spec, spec.n, spec.k))
    if family == "gaussian_row_normalized":
        return row_normalize(_gaussian_block(spec, spec.n, spec.k))
    if family == "random_tight_frame":
        return SensingMatrix(_mgs_columns(_gaussian_block(spec, spec.n, spec.k)))
    if family == "bernoulli":
        rng = philox_generator("matgen/bernoulli", spec.seed, spec.n, spec.k)
        block = rng.integers(0, 2, size=(spec.n, spec.k)).astype(np.float64) * 2.0 - 1.0
        return SensingMatrix(block)
    if family == "dct_frame":
        return SensingMatrix(_dct_rows(spec.n, spec.k))
    if family == "stacked_scaled":
        half = _gaussian_block(spec, spec.n // 2, spec.k)
        return SensingMatrix(np.vstack([half, spec.scale * half]))
    raise AssertionError(f"unhandled family {family!r}")
