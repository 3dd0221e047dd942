"""Plain-text CSV input and output for matrices.

The on-disk format is one matrix row per line, entries comma separated, no
header. Dimensions are inferred on read. The writer emits 17 significant
digits so every float64 value survives a round trip bit for bit.
"""

from __future__ import annotations

import numpy as np

from .linalg import SensingMatrix

__all__ = ["FLOAT_FMT", "load_matrix", "save_matrix"]

FLOAT_FMT = "%.17g"


def save_matrix(path, matrix) -> None:
    """Write a matrix to ``path`` in the plain CSV format."""
    if isinstance(matrix, SensingMatrix):
        arr = matrix.entries
    else:
        arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
    with open(path, "w", encoding="ascii") as fh:
        for row in arr:
            fh.write(",".join(FLOAT_FMT % v for v in row))
            fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`.

    Blank lines are ignored. Ragged rows and unparsable entries raise
    ValueError naming the offending line number.
    """
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} values, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse a value in {text!r}"
                ) from None
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    return np.array(rows, dtype=np.float64)
