"""Reproducible test-matrix families.

Random families draw from a counter-based Philox stream keyed by
(family, seed, N, K), so the same spec yields the same matrix on any
platform and under any thread schedule. Gaussian entries are produced by
the Box-Muller transform applied to that stream. One table, ``_TABLE``,
holds each family's entries, the settings it reads besides n, k and seed,
and the (N, K) it cannot build; :class:`GeneratorSpec` and
:func:`generate` read it and name no family themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .linalg import SensingMatrix, _check_positive, _check_seed, _integer, _real, row_normalize
from .seeding import philox_generator

__all__ = ["FAMILIES", "GeneratorSpec", "generate"]


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


def _stream(spec: GeneratorSpec) -> np.random.Generator:
    return philox_generator(f"matgen/{spec.family}", spec.seed, spec.n, spec.k)


def _gaussian_block(spec: GeneratorSpec, n: int) -> np.ndarray:
    """The first ``n`` rows' worth of standard normal draws of ``spec``'s stream."""
    return _box_muller(_stream(spec), n * spec.k).reshape(n, spec.k)


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


def _bernoulli_signs(spec: GeneratorSpec) -> np.ndarray:
    return _stream(spec).integers(0, 2, size=(spec.n, spec.k)).astype(np.float64) * 2.0 - 1.0


def _stacked_scaled(spec: GeneratorSpec) -> np.ndarray:
    half = _gaussian_block(spec, spec.n // 2) * spec.entry_scale
    return np.vstack([half, spec.scale * half])


class _Family(NamedTuple):
    """One family: its entries, the settings it reads, the sizes it cannot build."""

    entries: Callable  # spec -> (N, K) array
    reads: tuple = ()  # settings read besides n, k and seed
    cannot_build: Callable = lambda n, k: False  # true for an (N, K) it cannot build
    reason: str = ""  # why not, after the family name


_TABLE = {
    "gaussian": _Family(lambda s: _gaussian_block(s, s.n) * s.entry_scale, ("entry_scale",)),
    "gaussian_row_normalized": _Family(lambda s: row_normalize(_gaussian_block(s, s.n)).entries),
    "random_tight_frame": _Family(lambda s: _mgs_columns(_gaussian_block(s, s.n)), (),
                                  lambda n, k: n <= k, "needs more rows than columns"),
    "bernoulli": _Family(_bernoulli_signs),
    "dct_frame": _Family(lambda s: _dct_rows(s.n, s.k), (), lambda n, k: k > n, "needs k <= n"),
    "stacked_scaled": _Family(_stacked_scaled, ("scale", "entry_scale"),
                              lambda n, k: n % 2 != 0, "needs an even number of rows"),
}
FAMILIES = tuple(_TABLE)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one test matrix.

    ``scale`` is the duplicate-block factor of ``stacked_scaled`` and must
    exceed 1 there. ``entry_scale`` multiplies the raw Gaussian draws of
    ``gaussian`` and ``stacked_scaled``. Each family reads only the settings
    its row of the family table names; the others must keep their defaults,
    so a ``scale`` or an ``entry_scale`` other than 1.0 given to a family
    that does not read it raises ValueError, as does an (N, K) the family
    cannot build.
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
        _refuse_unread(self, (self.family,), f"family {self.family!r}")
        row = _TABLE[self.family]
        if row.cannot_build(self.n, self.k):
            raise ValueError(f"{self.family} {row.reason}")
        if "scale" in row.reads and (self.scale is None or not 1.0 < _real("scale", self.scale) < math.inf):
            raise ValueError(f"{self.family} needs scale > 1, got {self.scale}")


def _refuse_unread(source, families, got: str) -> None:
    """ValueError naming the first setting ``source`` sets that none of ``families`` reads.

    ``source`` is a spec or an experiment config. A setting counts as set
    when it differs from its :class:`GeneratorSpec` default, and ``scale``
    is checked before ``entry_scale``. ``got`` ends the message.
    """
    for name in ("scale", "entry_scale"):
        readers = [family for family in FAMILIES if name in _TABLE[family].reads]
        if getattr(source, name) != getattr(GeneratorSpec, name) and not set(readers) & set(families):
            raise ValueError(f"{name} only applies to {' and '.join(readers)}, got {got}")


def generate(spec: GeneratorSpec) -> SensingMatrix:
    """Materialize the matrix described by ``spec``.

    The result is fully determined by (family, seed, n, k) plus the
    settings the family reads; ``dct_frame`` ignores the seed entirely.
    """
    return SensingMatrix(_TABLE[spec.family].entries(spec))
