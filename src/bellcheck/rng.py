"""Reproducible counter-based random streams.

Each simulation shot gets its own Philox4x64-10 stream keyed by
(seed, shot), so results are reproducible for a fixed seed and
independent of how shots are scheduled or partitioned across workers.

`shot_stream` is that stream as a NumPy generator.  `shot_draws` computes
the same numbers for many shots at once, in plain numpy arithmetic:
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) maps a four-word counter and a two-word key to four 64-bit
words in ten rounds of multiply-and-xor, so every (shot, counter) pair is
an independent lane and one pass of array operations runs thousands of
them.  NumPy's `Philox(key=[seed, shot])` steps its counter before each
block of four words, so a shot's stream is the blocks of counters
(1, 0, 0, 0), (2, 0, 0, 0), ..., and `Generator.random` turns word x into
the double (x >> 11) * 2**-53.  The kernel follows both conventions, so
its draws equal the generator's bit for bit, and it never imports
`numpy.random`.
"""

from __future__ import annotations

import numpy as np

# Round multipliers and per-round key increments of Philox4x64.
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_M = np.array([[m] for m in _MULTIPLIERS], dtype=np.uint64)
_LOW, _U32, _U11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)
_M_LOW, _M_HIGH = _M & _LOW, _M >> _U32
# Lanes per in-place pass: a pass keeps fourteen 64-bit words per lane
# live, 0.9 MiB at this size, which fits a typical per-core L2 cache.
LANES = 8192


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


def shot_draws(seed: int, groups: list[tuple[range, int]]) -> list[np.ndarray]:
    """The first k draws of each shot's stream, for groups of shots.

    Group (shots, k) gives a (len(shots), k) array whose row i equals
    `shot_stream(seed, shots[i]).random(k)`.  Each shot computes only the
    ceil(k / 4) Philox blocks its row reads, and the blocks of every group
    run through one kernel, so many small groups cost about as much as
    one large group of the same total size.
    """
    check_key(seed, 0)
    for shots, k in groups:
        if k < 0:
            raise ValueError(f"draw count must be >= 0, got {k}")
        for shot in (shots[0], shots[-1]) if shots else ():
            check_key(seed, shot)
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
        m = len(lane)
        if m < width:
            state, key, high, t0, t1, t2 = (a[:, :m] for a in (state, key, high, t0, t1, t2))
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
            np.add(key, _WEYL, out=key)
            _mulhi(x, high, t0, t1, t2)
            np.bitwise_xor(high, y[::-1], out=high)
            np.multiply(x, _M, out=y[::-1])
            np.bitwise_xor(high[::-1], key, out=x)
        # (x >> 11) < 2**53 converts exactly, and faster from int64.
        np.right_shift(state, _U11, out=state)
        np.multiply(state.T.view(np.int64), 2.0**-53, out=out[begin : begin + m])


def _mulhi(x, high, t0, t1, t2) -> None:
    """high = the top 64 bits of the 128-bit products x * _M, row by row.

    Schoolbook multiplication on 32-bit halves; the middle column is at
    most (2^32 - 1)^2 + 2 (2^32 - 1) = 2^64 - 1, so no sum overflows.
    """
    np.bitwise_and(x, _LOW, out=t0)
    np.right_shift(x, _U32, out=t1)
    np.multiply(t1, _M_HIGH, out=high)
    np.multiply(t1, _M_LOW, out=t1)
    np.multiply(t0, _M_LOW, out=t2)
    np.right_shift(t2, _U32, out=t2)
    np.multiply(t0, _M_HIGH, out=t0)
    np.add(t0, t2, out=t0)
    np.bitwise_and(t1, _LOW, out=t2)
    np.add(t0, t2, out=t0)
    np.right_shift(t1, _U32, out=t1)
    np.add(high, t1, out=high)
    np.right_shift(t0, _U32, out=t0)
    np.add(high, t0, out=high)
