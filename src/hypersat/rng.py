"""Deterministic, splittable random number generation.

All randomness in the package flows through Philox, a counter-based
generator with a documented, platform-independent algorithm.  Streams are
derived from a user seed plus integer stream labels via a splitmix-style
mixer, so independent components (weight sampling, parameter init, dropout,
assignment sampling) never share a stream.  ``make_rng`` wraps a stream in
a ``Generator``; the attention dropout takes the bare ``derive_key`` key
instead: ``autodiff.dropout_masks`` reads raw words of its stream and packs
the keep masks to bits, so the masks depend on the key alone.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix(h: int, v: int) -> int:
    # splitmix64 finalizer, used as a combiner
    h = (h ^ (v & _MASK64)) & _MASK64
    h = (h + 0x9E3779B97F4A7C15) & _MASK64
    z = h
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_key(*parts: int) -> int:
    """Combine integer stream labels into a single 64-bit Philox key."""
    h = 0x6A09E667F3BCC908
    for p in parts:
        h = _mix(h, int(p))
    return h


def make_rng(*parts: int) -> np.random.Generator:
    """Philox generator keyed by the mixed stream labels."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


def stable_name_hash(name: str) -> int:
    """64-bit hash of a string, stable across processes and platforms."""
    h = 0xCBF29CE484222325
    for b in name.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h
