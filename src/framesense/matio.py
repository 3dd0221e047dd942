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

# ASCII information separators: whitespace to numpy's number parser, not to float().
_SEPARATORS = "\x1c\x1d\x1e\x1f"


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
    with open(path, "r", encoding="ascii") as fh:
        # numpy parses each field as float() does, in C. Every file it
        # refuses goes to the line scanner below, which decides what float()
        # accepts and names the line of an error.
        if _numpy_reads_like_float(fh):
            fh.seek(0)
            try:
                return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
        fh.seek(0)
        rows = []
        width = None
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


def _numpy_reads_like_float(fh) -> bool:
    """Whether ``np.loadtxt`` can only agree with the line scanner on ``fh``.

    numpy takes the ASCII information separators, which float() rejects,
    for whitespace, and warns instead of failing on a file without rows.
    """
    try:
        text = fh.read()
    except UnicodeDecodeError:
        return False
    return bool(text) and not text.isspace() and not any(c in text for c in _SEPARATORS)
