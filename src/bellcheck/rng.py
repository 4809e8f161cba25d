"""Reproducible counter-based random streams.

Each simulation shot gets its own Philox4x64-10 stream keyed by
(seed, shot), so results are reproducible for a fixed seed and
independent of how shots are scheduled or partitioned across workers.

Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) maps a four-word counter and a two-word key to four 64-bit
words in ten rounds of multiply-and-xor.  NumPy's `Philox(key=[seed,
shot])` steps its counter before each block of four words, so a shot's
stream is the blocks of counters (1, 0, 0, 0), (2, 0, 0, 0), ..., and
`Generator.random` turns word x into the double (x >> 11) * 2**-53.

The stream is computed three ways, all equal bit for bit:

- `packed_words` in plain Python ints for many shots at once: the raw
  words, with no numpy import, which small runs use.  Every (shot,
  counter) pair is a lane, and the lanes of a pass are packed as
  128-bit slots of a few big ints, so each round is a dozen big-int
  operations however many lanes the pass holds;
- `shot_draws` in numpy arithmetic for many shots at once, with the
  same lanes as rows of uint64 arrays, without importing `numpy.random`;
- `shot_stream`, NumPy's own generator, the oracle of both.

Importing this module does not import numpy: only `shot_stream`,
`shot_draws` and the kernel behind it do.
"""

from __future__ import annotations

# Round multipliers and per-round key increments of Philox4x64.
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK = (1 << 64) - 1
# A lane of `packed_words` holding 1: 16 bytes, little-endian.
_ONE_SLOT = (1).to_bytes(16, "little")
# Lanes per pass of `packed_words`, at least: a pass keeps about a dozen
# ints of 16 bytes per lane live, 0.8 MiB at this size, which fits a
# typical per-core L2 cache; a pass of 86,000 lanes ran about 1.5x slower.
PACKED_LANES = 4096
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


def _check_groups(seed: int, groups: list[tuple[range, int]]) -> None:
    """Raise unless every shot of every group has a stream key and every k is >= 0.

    The seed is checked even when no shot is drawn.
    """
    check_key(seed, 0)
    for shots, k in groups:
        if k < 0:
            raise ValueError(f"draw count must be >= 0, got {k}")
        for shot in (shots[0], shots[-1]) if shots else ():
            check_key(seed, shot)


def shot_stream(seed: int, shot: int) -> np.random.Generator:
    """Independent generator for one shot of a seeded experiment."""
    import numpy as np

    check_key(seed, shot)
    key = np.array([seed, shot], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def packed_words(seed: int, groups: list[tuple[range, int]]) -> list[list[bytes]]:
    """The first k 64-bit words of each shot's stream, for groups of shots, in plain Python.

    Group (shots, k) gives k byte strings, one per word index.  String w
    has a 16-byte slot per shot: slot i holds word w of shot shots[i] in
    its first 8 bytes, little-endian, and zeros in the other 8.  Word x is
    the draw (x >> 11) * 2**-53 of `shot_stream(seed, shots[i])`.

    Each shot computes only the ceil(k / 4) blocks its words come from.
    The blocks of every group run in passes of about `PACKED_LANES` lanes,
    each pass a run of whole (group, block) segments.
    """
    _check_groups(seed, groups)
    slots = [b"".join([shot.to_bytes(16, "little") for shot in shots]) for shots, _ in groups]
    blocks = [-(-k // 4) for _, k in groups]
    # Round 1 with counter (c, 0, 0, 0) and key (k0, k1) gives
    # (k0, 0, hi(M0 c) ^ k1, lo(M0 c)): a table over the block index.
    firsts = [divmod(_MULTIPLIERS[0] * c, 1 << 64) for c in range(1, max(blocks, default=0) + 1)]
    firsts = [(high.to_bytes(16, "little"), low.to_bytes(16, "little")) for high, low in firsts]
    words: list[list[bytes]] = [[] for _ in groups]
    segments, lanes = [], 0
    for g, ((shots, _), b) in enumerate(zip(groups, blocks)):
        for high, low in firsts[:b] if shots else ():
            segments.append((g, high, low))
            lanes += len(shots)
            if lanes >= PACKED_LANES:
                _packed_pass(seed, segments, slots, words)
                segments, lanes = [], 0
    if segments:
        _packed_pass(seed, segments, slots, words)
    return [row[:k] if shots else [b""] * k for row, (shots, k) in zip(words, groups)]


def _packed_pass(seed: int, segments: list[tuple[int, bytes, bytes]], slots, words) -> None:
    """For each segment (g, high, low), append one block's four words of group g to `words[g]`.

    The block's round 1 gives x2 = high ^ shot and x3 = low.  The lanes are the shots of each segment in turn, and
    each Philox state word of every lane is one 128-bit slot of a Python
    int.  A 64-bit word times a 64-bit multiplier fills its own slot and
    never carries into the next, so a round is a dozen big-int operations
    over all lanes at once.
    """
    shots = b"".join([slots[g] for g, _, _ in segments])
    highs = b"".join([high * (len(slots[g]) // 16) for g, high, _ in segments])
    lows = b"".join([low * (len(slots[g]) // 16) for g, _, low in segments])
    lanes = len(shots) // 16
    ones = int.from_bytes(_ONE_SLOT * lanes, "little")  # 1 in every slot
    mask = ones * _MASK
    m0, m1 = _MULTIPLIERS
    step0, step1 = _WEYL[0] * ones, _WEYL[1] * ones
    k0, k1 = seed * ones, int.from_bytes(shots, "little")
    x0, x1 = k0, 0
    x2 = k1 ^ int.from_bytes(highs, "little")
    x3 = int.from_bytes(lows, "little")
    for _ in range(9):
        # (x0, x1, x2, x3) -> (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0), where
        # (hi0, lo0) = M0 x0 and (hi1, lo1) = M1 x2.  The keys and x1, x3
        # are kept unreduced: a slot's bits above 64 reach the state only
        # through an xor that `mask` clears, and no slot outgrows 128 bits.
        k0 += step0
        k1 += step1
        p0, p1 = x0 * m0, x2 * m1
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0) & mask, p1, ((p0 >> 64) ^ x3 ^ k1) & mask, p0
    d0, d1, d2, d3 = (x.to_bytes(len(shots), "little") for x in (x0, x1 & mask, x2, x3 & mask))
    start = 0
    for g, _, _ in segments:
        end = start + len(slots[g])
        words[g] += (d0[start:end], d1[start:end], d2[start:end], d3[start:end])
        start = end


def shot_draws(seed: int, groups: list[tuple[range, int]]) -> list[np.ndarray]:
    """The first k draws of each shot's stream, for groups of shots.

    Group (shots, k) gives a (len(shots), k) array whose row i equals
    `shot_stream(seed, shots[i]).random(k)`.  Each shot computes only the
    ceil(k / 4) Philox blocks its row reads, and the blocks of every group
    run through one kernel, so many small groups cost about as much as
    one large group of the same total size.
    """
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
