"""Deterministic stream derivation for counter-based random generators.

Every random draw in the package comes from a Philox generator keyed by a
hash of a purpose label and integer parameters. The same (label, params)
tuple yields the same stream on every platform and under any thread
schedule, which is what makes sweeps reproducible row by row.
"""

from __future__ import annotations

import numpy as np

from .linalg import _integer

__all__ = ["derive_seed", "philox_generator", "stream_key"]


def stream_key(label: str, *parts: int) -> int:
    """128-bit key derived from a label and integer parameters.

    A part that is not an integer, or is a bool, raises ValueError.
    """
    # imported here: hashlib loads OpenSSL, which a run drawing nothing never needs
    import hashlib

    h = hashlib.sha256()
    h.update(label.encode("ascii"))
    for part in parts:
        h.update(b"|")
        h.update(str(_integer("stream key part", part)).encode("ascii"))
    return int.from_bytes(h.digest()[:16], "little")


def philox_generator(label: str, *parts: int) -> np.random.Generator:
    """Counter-based generator for the stream named by (label, parts)."""
    return np.random.Generator(np.random.Philox(key=stream_key(label, *parts)))


def derive_seed(label: str, *parts: int) -> int:
    """64-bit unsigned seed for handing to downstream components."""
    return stream_key(label, *parts) & 0xFFFFFFFFFFFFFFFF
