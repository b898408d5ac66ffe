"""Seed derivation for reproducible, order-independent parallel trials.

One 64-bit base seed; every consumer derives its own sub-stream by hashing
(base, label, indices) with blake2s, so trial (i, j) sees the same stream
no matter which worker runs it or in what order.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from .errors import DomainError

__all__ = ["spawn_seed", "make_rng"]

_MASK = (1 << 64) - 1


def _seed(value, what: str) -> int:
    """value as an int; DomainError unless it is an integer.  Any sign and
    width passes (derived seeds are unsigned 64-bit); floats and booleans
    do not."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


def spawn_seed(base: int, label: str, *indices: int) -> int:
    """Derive a 64-bit sub-seed from (base, label, *indices)."""
    h = hashlib.blake2s(digest_size=8)
    h.update((_seed(base, "base seed") & _MASK).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    for ix in indices:
        h.update((_seed(ix, "seed index") & _MASK).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator from a 64-bit seed; the stream is version-stable."""
    return np.random.default_rng(np.random.SeedSequence(_seed(seed, "seed") & _MASK))
