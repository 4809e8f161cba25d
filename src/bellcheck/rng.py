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
- `numpy_draws.shot_draws` in numpy arithmetic for many shots at once,
  with the same lanes as rows of uint64 arrays, without `numpy.random`;
- `shot_stream`, NumPy's own generator, the oracle of both.

Importing this module does not import numpy: only `shot_stream` does.
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
