"""The lane-packed plain-int Philox (`philox_blocks`) against NumPy's own `Philox`.

NumPy's generator is the oracle: every block `philox_blocks` computes
must equal, bit for bit, the four raw words NumPy's
`Philox(key=[seed, key])` draws first with its counter set one below the
block's counter (NumPy steps its counter before each block).  The tests
ask for runs (key, c1, count) of blocks at counters (c0 + j, c1, c2, 0),
as `protocol` asks for the chunks of one record plane.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import shot_stream
from bellcheck import rng
from bellcheck.rng import philox_blocks

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**40 + 1, 2**64 - 1]
TOP = 2**64 - 1


def numpy_block(seed, key, counter):
    """The block at a 256-bit counter, as an int, from NumPy's `Philox` with its counter set."""
    philox = np.random.Philox(key=np.array([seed, key], dtype=np.uint64), counter=(counter - 1) % 2**256)
    return sum(int(x) << 64 * w for w, x in enumerate(philox.random_raw(4)))


def philox_runs(seed, c0, c2, runs):
    """`philox_blocks` for runs (key, c1, count) from counter c0: one int of 256 * count bits per run."""
    lanes = b"".join(
        key.to_bytes(8, "little") + (c0 + j).to_bytes(8, "little") + c1.to_bytes(8, "little")
        for key, c1, count in runs
        for j in range(count)
    )
    blocks = philox_blocks(seed, c2, lanes)
    assert len(blocks) == 32 * len(lanes) // 24
    out, start = [], 0
    for _, _, count in runs:
        out.append(int.from_bytes(blocks[start : start + 32 * count], "little"))
        start += 32 * count
    return out


def numpy_runs(seed, c0, c2, runs):
    """The ints `philox_runs(seed, c0, c2, runs)` must return, block by block from NumPy."""
    return [
        sum(numpy_block(seed, key, c0 + j | c1 << 64 | c2 << 128) << 256 * j for j in range(count))
        for key, c1, count in runs
    ]


def assert_runs_equal_numpy(seed, c0, c2, runs):
    out = philox_runs(seed, c0, c2, runs)
    assert len(out) == len(runs)
    for value, (_, _, count) in zip(out, runs):
        assert 0 <= value < 2 ** (256 * count)
    assert out == numpy_runs(seed, c0, c2, runs)


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_rows_equal_scalar_draws_of_each_stream(seed):
    """A run's blocks are the words `shot_stream` draws one at a time, and its draws.

    A fresh stream draws the blocks at counters 1, 2, ... in turn.
    """
    (value,) = philox_runs(seed, 1, 0, [(9, 0, 3)])
    generator = shot_stream(seed, 9).bit_generator
    assert [value >> 64 * w & 2**64 - 1 for w in range(12)] == [int(generator.random_raw()) for _ in range(12)]
    stream = shot_stream(seed, 9)
    draws = [stream.random() for _ in range(12)]
    assert draws == [((value >> 64 * w & 2**64 - 1) >> 11) * 2.0**-53 for w in range(12)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 3, 4, 5, 84])
def test_key_range_edges(seed, k):
    """Keys at both ends of the 64-bit range, runs of k blocks, counter words at their tops."""
    runs = [(key, c1, k) for key in (0, 1, 2, TOP - 2, TOP - 1, TOP) for c1 in (0, TOP)]
    assert_runs_equal_numpy(seed, 0, 0, runs)
    assert_runs_equal_numpy(seed, 2**64 - k, TOP, runs[-2:])


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_protocol_schedule_groups(seed):
    """One run per record plane of each schedule entry, as `protocol` draws one round.

    The entries have ragged numbers of chunks (lanes of 256 shots) and of
    planes, and the runs start at a block of lanes past the first.
    """
    chunks = [2, 2, 1, 1, 0, 1, 1]
    planes = [4, 4, 6, 1, 12, 28, 5]
    runs = [(entry, r, chunks[entry]) for entry in range(7) for r in range(1, 1 + planes[entry])]
    assert_runs_equal_numpy(seed, 16, 3, runs)


def test_ragged_per_shot_widths():
    runs = [(key, key % 5, key % 23) for key in range(60)]
    assert_runs_equal_numpy(12345, 1, 0, runs)


def test_reverse_and_empty_groups():
    """Runs in any key order, empty runs among them."""
    assert_runs_equal_numpy(9, 0, 4, [(20, 1, 2), (5, 0, 0), (4, 9, 3), (0, 0, 0), (1, 1, 1)])


def test_groups_span_passes(monkeypatch):
    """Passes that end inside a run or between runs give the same blocks."""
    runs = [(key, 2 * key, 4 * (key + 1) - 1) for key in range(3)]
    whole = philox_runs(3, 7, 1, runs)
    monkeypatch.setattr(rng, "PACKED_LANES", 5)
    assert philox_runs(3, 7, 1, runs) == whole
    assert_runs_equal_numpy(3, 7, 1, runs)


words64 = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=words64, key=words64, c0=words64, c1=words64, c2=words64)
def test_property_one_shot(seed, key, c0, c1, c2):
    assert_runs_equal_numpy(seed, c0, c2, [(key, c1, 1)])


@settings(max_examples=60, deadline=None)
@given(seed=words64, key=words64, k=st.integers(0, 12))
@example(seed=2**64 - 1, key=2**64 - 1, k=12)
@example(seed=0, key=0, k=0)
def test_property_plain_words(seed, key, k):
    """One run of k blocks against NumPy's raw Philox words and its generator's draws.

    A fresh NumPy `Philox` draws the blocks at counters 1, 2, ... in turn.
    """
    (value,) = philox_runs(seed, 1, 0, [(key, 0, k)])
    words = np.random.Philox(key=np.array([seed, key], dtype=np.uint64)).random_raw(4 * k).tolist()
    assert [value >> 64 * i & 2**64 - 1 for i in range(4 * k)] == words
    assert_runs_equal_numpy(seed, 1, 0, [(key, 0, k)])
    assert shot_stream(seed, key).random(4 * k).tolist() == [(x >> 11) * 2.0**-53 for x in words]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(words64, st.integers(2**64 - 4, 2**64 - 1)),
    c0=st.one_of(st.integers(0, 40), st.integers(2**64 - 40, 2**64 - 14)),
    c2=st.one_of(st.integers(0, 40), words64),
    runs=st.lists(st.tuples(words64, words64, st.integers(0, 13)), max_size=12),
)
@example(seed=2**64 - 1, c0=2**64 - 14, c2=2**64 - 1, runs=[(TOP, TOP, 13), (0, 0, 0), (4, 0, 1)])
def test_property_packed_groups(seed, c0, c2, runs):
    """Runs of any keys, counter words and lengths, as one call: each is its own stream's blocks."""
    assert_runs_equal_numpy(seed, c0, c2, runs)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_plain_words_of_strided_shots(seed):
    """The lanes of one schedule entry, its shots e, e + period, ..., at the top of the counters.

    An entry's record plane is one run, its chunks of 256 lanes one block
    each; an empty run and an empty call give nothing to draw.
    """
    assert_runs_equal_numpy(seed, 2**64 - 6, TOP, [(TOP, 13, 6)])
    assert philox_runs(seed, 5, 0, [(5, 13, 0)]) == [0]
    assert philox_blocks(seed, 0, b"") == b""


@pytest.mark.parametrize("lanes", [1, 2, 5, 4096])
def test_packed_passes_cut_anywhere(monkeypatch, lanes):
    """Many runs, as `protocol` draws a round of n = 13 in context; any pass size."""
    monkeypatch.setattr(rng, "PACKED_LANES", lanes)
    runs = [(entry, r, 1 + entry % 3) for entry in range(80) for r in range(1, 1 + entry % 7)]
    assert_runs_equal_numpy(2**64 - 1, 3, 2, runs)


def test_empty_range():
    assert philox_blocks(1, 0, b"") == b""
    assert philox_runs(1, 0, 0, [(0, 0, 0), (3, 1, 0)]) == [0, 0]


def test_negative_keys_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        philox_blocks(-1, 0, bytes(24))
    with pytest.raises(ValueError, match="non-negative"):
        philox_blocks(1, -1, bytes(24))
    with pytest.raises(ValueError, match="non-negative"):
        shot_stream(0, -1)
    # Lanes are whole blocks of three 64-bit words.
    with pytest.raises(ValueError, match="24 bytes per block"):
        philox_blocks(1, 0, bytes(23))
    with pytest.raises(ValueError, match="24 bytes per block"):
        philox_blocks(1, 0, bytes(32))


def test_keys_beyond_64_bits_rejected():
    # Reducing them modulo 2**64 would give seed 2**64 + 1 the streams of seed 1.
    with pytest.raises(ValueError, match="below 2"):
        philox_blocks(2**64 + 1, 0, bytes(24))
    with pytest.raises(ValueError, match="below 2"):
        philox_blocks(1, 2**64, bytes(24))
    with pytest.raises(ValueError, match="below 2"):
        shot_stream(2**64, 0)
    with pytest.raises(ValueError, match="below 2"):
        shot_stream(0, 2**64)
    # A bad seed is refused even when no block is drawn.
    with pytest.raises(ValueError, match="below 2"):
        philox_blocks(2**64, 0, b"")
