"""The sampler's numpy side, which `protocol` imports only for a run above its draw budget.

`shot_draws` is the Philox4x64-10 of `rng` in numpy arithmetic, each
(shot, counter) lane a row of uint64 arrays, without `numpy.random`;
`packed_planes` packs its draws into `protocol`'s record planes.
"""

from __future__ import annotations

import numpy as np

from .rng import _MULTIPLIERS, _WEYL, _check_groups

# Lanes per in-place pass: a pass keeps fourteen 64-bit words per lane
# live, 0.9 MiB at this size, which fits a typical per-core L2 cache.
LANES = 8192


def shot_draws(seed: int, groups: list[tuple[range, int]]) -> list[np.ndarray]:
    """The first k draws of each shot's stream, for groups of shots.

    Group (shots, k) gives a (len(shots), k) array whose row i equals
    `shot_stream(seed, shots[i]).random(k)`.  Each shot computes only the
    ceil(k / 4) Philox blocks its row reads, and the blocks of every group
    run through one kernel, so many small groups cost about as much as
    one large group of the same total size.
    """
    _check_groups(seed, groups)
    rows = np.array([len(shots) for shots, _ in groups], dtype=np.int64)
    blocks = np.array([-(-k // 4) for _, k in groups], dtype=np.int64)
    firsts = np.array([shots[0] if shots else 0 for shots, _ in groups], dtype=np.uint64)
    steps = np.array([shots.step % (1 << 64) for shots, _ in groups], dtype=np.uint64)
    ends = np.cumsum(rows * blocks)
    starts = ends - rows * blocks
    lanes = int(ends[-1]) if len(groups) else 0
    out = np.empty((lanes, 4))
    if lanes:
        _philox(seed, firsts, steps, starts, ends, blocks, out)
    return [
        out[start:end].reshape(len(shots), 4 * b)[:, :k]
        for (shots, k), b, start, end in zip(groups, blocks.tolist(), starts.tolist(), ends.tolist())
    ]


def _philox(seed, firsts, steps, starts, ends, blocks, out) -> None:
    """Fill `out` (one row of four draws per lane) pass by pass.

    Lanes are numbered group by group, shot by shot, block by block: lane
    `starts[g] + i * blocks[g] + j` is block j of shot firsts[g] + i *
    steps[g] (mod 2^64), counter (j + 1, 0, 0, 0).
    """
    weyl = np.array([[w] for w in _WEYL], dtype=np.uint64)
    multipliers = np.array([[m] for m in _MULTIPLIERS], dtype=np.uint64)
    width = min(LANES, len(out))
    state = np.empty((4, width), dtype=np.uint64)
    key, high, t0, t1, t2 = (np.empty((2, width), dtype=np.uint64) for _ in range(5))
    # Round 1 with counter (c, 0, 0, 0) and key (k0, k1) gives
    # (k0, 0, hi(M0 c) ^ k1, lo(M0 c)): a table over the block index.
    products = [divmod(_MULTIPLIERS[0] * (j + 1), 1 << 64) for j in range(int(blocks.max()))]
    first_high = np.array([hi for hi, _ in products], dtype=np.uint64)
    first_low = np.array([lo for _, lo in products], dtype=np.uint64)
    for begin in range(0, len(out), LANES):
        lane = np.arange(begin, min(begin + LANES, len(out)))
        size = len(lane)
        if size < width:
            state, key, high, t0, t1, t2 = (a[:, :size] for a in (state, key, high, t0, t1, t2))
        group = np.searchsorted(ends, lane, side="right")
        row, block = np.divmod(lane - starts[group], blocks[group])
        key[0] = seed
        np.multiply(row.astype(np.uint64), steps[group], out=key[1])
        np.add(key[1], firsts[group], out=key[1])
        # The state rows are (x0, x1, x2, x3); x = (x0, x2) and y = (x1, x3).
        x, y = state[0::2], state[1::2]
        state[0] = seed
        state[1] = 0
        np.take(first_high, block, out=state[2])
        np.bitwise_xor(state[2], key[1], out=state[2])
        np.take(first_low, block, out=state[3])
        for _ in range(9):
            # (x0, x1, x2, x3) -> (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0),
            # where (hi0, lo0) = M0 x0 and (hi1, lo1) = M1 x2.
            np.add(key, weyl, out=key)
            _mulhi(x, multipliers, high, t0, t1, t2)
            np.bitwise_xor(high, y[::-1], out=high)
            np.multiply(x, multipliers, out=y[::-1])
            np.bitwise_xor(high[::-1], key, out=x)
        # (x >> 11) < 2**53 converts exactly, and faster from int64.
        np.right_shift(state, np.uint64(11), out=state)
        np.multiply(state.T.view(np.int64), 2.0**-53, out=out[begin : begin + size])


def _mulhi(x, m, high, t0, t1, t2) -> None:
    """high = the top 64 bits of the 128-bit products x * m, row by row.

    Schoolbook multiplication on 32-bit halves; the middle column is at
    most (2^32 - 1)^2 + 2 (2^32 - 1) = 2^64 - 1, so no sum overflows.
    """
    low, u32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_low, m_high = m & low, m >> u32
    np.bitwise_and(x, low, out=t0)
    np.right_shift(x, u32, out=t1)
    np.multiply(t1, m_high, out=high)
    np.multiply(t1, m_low, out=t1)
    np.multiply(t0, m_low, out=t2)
    np.right_shift(t2, u32, out=t2)
    np.multiply(t0, m_high, out=t0)
    np.add(t0, t2, out=t0)
    np.bitwise_and(t1, low, out=t2)
    np.add(t0, t2, out=t0)
    np.right_shift(t1, u32, out=t1)
    np.add(high, t1, out=high)
    np.right_shift(t0, u32, out=t0)
    np.add(high, t0, out=high)


def packed_planes(draws, flip_p: tuple, efficiency: float) -> list[int]:
    """The record planes of a block's rows of draws (`shot_draws`), packed by numpy.

    The same planes as `protocol._word_planes`, from row i of `draws` for shot i.
    """
    width = len(flip_p)
    rows, k = draws.shape
    record = np.empty((1 + k, rows), dtype=bool)
    record[0] = True
    np.greater_equal(draws[:, :width].T, 0.5, out=record[1 : 1 + min(k, width)])
    if k > width:
        np.less(draws[:, width::2].T, np.array(flip_p)[:, None], out=record[1 + width :: 2])
        np.greater_equal(draws[:, width + 1 :: 2].T, efficiency, out=record[2 + width :: 2])
    packed = np.packbits(record, axis=1, bitorder="little")
    data, size = packed.tobytes(), packed.shape[1]
    from_bytes = int.from_bytes  # looked up once, not once per plane
    return [from_bytes(data[r * size : (r + 1) * size], "little") for r in range(len(packed))]
