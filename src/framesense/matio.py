"""Plain-text CSV input and output for matrices.

The on-disk format is one matrix row per line, entries comma separated, no
header. Dimensions are inferred on read. The writer emits 17 significant
digits so every float64 value survives a round trip bit for bit.
"""

from __future__ import annotations

import numpy as np

from .linalg import SensingMatrix

__all__ = ["FLOAT_FMT", "csv_row", "load_matrix", "save_matrix"]

FLOAT_FMT = "%.17g"

# ASCII information separators: whitespace to numpy's number parser, not to float().
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def csv_row(values) -> str:
    """The one format of every experiment table row, without its newline.

    ``None`` is an empty field and a bool ``0`` or ``1``. Other ints are
    decimal, since seeds reach 2**64 - 1, and strings are kept as they are.
    Anything else is written at :data:`FLOAT_FMT`, ``nan`` and ``inf`` too.
    """
    texts = []
    for value in values:
        if value is None:
            texts.append("")
        elif isinstance(value, bool):
            texts.append(str(int(value)))
        elif isinstance(value, (int, str)):
            texts.append(str(value))
        else:
            texts.append(FLOAT_FMT % value)
    return ",".join(texts)


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
    ValueError naming the offending line number. The file is read once, so
    ``path`` may be a pipe such as ``/dev/stdin``.
    """
    with open(path, "r", encoding="ascii") as fh:
        content = fh.read()
    lines = content.split("\n")
    # numpy parses each field as float() does, in C. Every file it refuses
    # goes to the line scanner below, which decides what float() accepts and
    # names the line of an error. numpy takes the ASCII information
    # separators, which float() rejects, for whitespace, and warns instead of
    # failing on a file without rows.
    if content and not content.isspace() and not any(c in content for c in _SEPARATORS):
        try:
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
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
