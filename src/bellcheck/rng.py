"""Reproducible counter-based random streams.

Each simulation shot gets its own Philox stream keyed by (seed, shot),
so results are reproducible for a fixed seed and independent of how
shots are scheduled or partitioned across workers.
"""

from __future__ import annotations

import numpy as np


def check_key(seed: int, shot: int) -> None:
    """Raise unless (seed, shot) is a valid stream key: two 64-bit words.

    Larger values are refused, not reduced modulo 2^64, so two different
    seeds never share a stream.
    """
    if not (0 <= seed < 1 << 64 and 0 <= shot < 1 << 64):
        raise ValueError("seed and shot index must be non-negative and below 2**64")


def shot_stream(seed: int, shot: int) -> np.random.Generator:
    """Independent generator for one shot of a seeded experiment."""
    check_key(seed, shot)
    key = np.array([seed, shot], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def shot_draws(seed: int, shots: range, k: int) -> np.ndarray:
    """The first k draws of each shot's stream, one row per shot in `shots`.

    Row i equals `shot_stream(seed, shots[i]).random(k)`, which is also
    k scalar `random()` calls.  One Philox is re-keyed per shot through
    its state instead of building a generator per shot.
    """
    for shot in (shots[0], shots[-1]) if shots else (0,):
        check_key(seed, shot)
    bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    generator = np.random.Generator(bit_generator)
    # A fresh state: zero counter, empty buffer.  The setter copies it, so
    # the key array can be rewritten in place for the next shot.
    state = bit_generator.state
    key = state["state"]["key"]
    out = np.empty((len(shots), k))
    for row, shot in enumerate(shots):
        key[1] = shot
        bit_generator.state = state
        generator.random(out=out[row])
    return out
