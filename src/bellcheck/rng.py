"""Reproducible counter-based random streams.

Each schedule entry of a seeded experiment has its own Philox4x64-10
stream, keyed by (seed, entry), so results are reproducible for a fixed
seed and independent of how shots are scheduled or partitioned.

Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) maps a four-word counter and a two-word key to a block of four
64-bit words in ten rounds of multiply-and-xor.  A block is read as 256
bits, word w at bits 64 w to 64 w + 63.

`philox_blocks` computes many blocks at once in plain Python ints: the
blocks of a pass are packed as 128-bit slots of a few big ints, so each
round is a dozen big-int operations however many blocks the pass holds.
The tests check its blocks bit for bit against NumPy's own `Philox`
(`tests/oracles.py`), which steps its counter before each block, so to
read a given block it is set one below it.
"""

# Round multipliers and per-round key increments of Philox4x64.
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK = (1 << 64) - 1
# A slot of `philox_blocks` holding 1: 16 bytes, little-endian.
_ONE_SLOT = (1).to_bytes(16, "little")
# Blocks per pass of `philox_blocks`: a pass keeps about a dozen
# ints of 16 bytes per block live, 0.8 MiB at this size, which fits a
# typical per-core L2 cache; a pass of 86,000 blocks ran about 1.5x slower.
PACKED_LANES = 4096


def check_key(seed: int, entry: int) -> None:
    """Raise unless (seed, entry) is a valid stream key: two 64-bit words.

    Larger values are refused, not reduced modulo 2^64, so two different
    seeds never share a stream.
    """
    if not (0 <= seed < 1 << 64 and 0 <= entry < 1 << 64):
        raise ValueError("seed and entry index must be non-negative and below 2**64")


def philox_blocks(seed: int, c2: int, lanes: bytes) -> bytes:
    """Philox4x64-10 blocks for many keys and counters at once, in plain Python.

    `lanes` holds 24 bytes per block: its key word k and counter words c0
    and c1, 64-bit little-endian.  Bytes 32 i to 32 i + 31 of the result
    are block i, key (seed, k) at counter (c0, c1, c2, 0), its four words
    64-bit little-endian: the first four raw words of NumPy's
    `Philox(key=[seed, k])` with its counter set one below the block's.

    The blocks are computed in passes of `PACKED_LANES`.
    """
    check_key(seed, 0)
    if not 0 <= c2 < 1 << 64:
        raise ValueError(f"counter word c2 must be non-negative and below 2**64, got {c2}")
    if len(lanes) % 24:
        raise ValueError(f"lanes must be 24 bytes per block, got {len(lanes)} bytes")
    step = 24 * PACKED_LANES
    return b"".join([_packed_pass(seed, c2, lanes[start : start + step]) for start in range(0, len(lanes), step)])


def _packed_pass(seed: int, c2: int, lanes: bytes) -> bytes:
    """The bytes of `philox_blocks` for `lanes`, in one pass.

    Each Philox state word of every lane is one 128-bit slot of a Python
    int.  A 64-bit word times a 64-bit multiplier fills its own slot and
    never carries into the next, so a round is a dozen big-int operations
    over all lanes.
    """
    n = len(lanes) // 24
    words, slots = memoryview(lanes).cast("Q"), bytearray(16 * n)
    spread = []  # word w of every lane in the low half of its slot
    for w in range(3):
        memoryview(slots).cast("Q")[::2] = words[w::3]
        spread.append(int.from_bytes(slots, "little"))
    k1, x0, x1 = spread
    ones = int.from_bytes(_ONE_SLOT * n, "little")  # 1 in every slot
    mask = ones * _MASK
    m0, m1 = _MULTIPLIERS
    step0, step1 = _WEYL[0] * ones, _WEYL[1] * ones
    k0, x2, x3 = seed * ones, c2 * ones, 0
    for r in range(10):
        # (x0, x1, x2, x3) -> (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0), where
        # (hi0, lo0) = M0 x0 and (hi1, lo1) = M1 x2.  The keys and x1, x3
        # are kept unreduced: a slot's bits above 64 reach the state only
        # through an xor that `mask` clears, and no slot outgrows 128 bits.
        if r:
            k0 += step0
            k1 += step1
        p0, p1 = x0 * m0, x2 * m1
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0) & mask, p1, ((p0 >> 64) ^ x3 ^ k1) & mask, p0
    # Word w of lane i is the low 8 bytes of slot i of the w-th state int,
    # and goes to bytes 32 i + 8 w of the blocks.
    blocks = bytearray(32 * n)
    view = memoryview(blocks).cast("Q")
    for w, x in enumerate((x0, x1, x2, x3)):
        view[w::4] = memoryview(x.to_bytes(16 * n, "little")).cast("Q")[::2]
    return blocks
