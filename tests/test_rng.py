"""Per-shot random streams: the lane-packed plain-int Philox and the batched numpy kernel.

NumPy's own `Philox` generator (`shot_stream`) is the oracle: every row
either implementation computes must equal that shot's generator draws
bit for bit, and the plain-int words must equal its raw words.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellcheck import numpy_draws, rng
from bellcheck.numpy_draws import shot_draws
from bellcheck.rng import packed_words, shot_stream

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**40 + 1, 2**64 - 1]


def packed_rows(seed, groups):
    """`packed_words(seed, groups)` read back as rows: row i of a group is shot shots[i]'s k words."""
    groups_words = packed_words(seed, groups)
    assert len(groups_words) == len(groups)
    out = []
    for (shots, k), words in zip(groups, groups_words):
        assert len(words) == k
        for word in words:
            assert len(word) == 16 * len(shots)
            assert all(word[i + 8 : i + 16] == bytes(8) for i in range(0, len(word), 16))
        columns = [[int.from_bytes(w[i : i + 8], "little") for i in range(0, len(w), 16)] for w in words]
        out.append([[column[i] for column in columns] for i in range(len(shots))])
    return out


def raw_words(seed, shot, k):
    """The first k raw 64-bit words of NumPy's `Philox(key=[seed, shot])`."""
    return np.random.Philox(key=np.array([seed, shot], dtype=np.uint64)).random_raw(k).tolist()


def assert_packed_rows_equal_numpy(seed, groups):
    """Every packed word equals NumPy's raw Philox word, and its draw the numpy kernel's."""
    for (shots, k), rows, draws in zip(groups, packed_rows(seed, groups), shot_draws(seed, groups)):
        assert rows == [raw_words(seed, shot, k) for shot in shots]
        assert [[(x >> 11) * 2.0**-53 for x in row] for row in rows] == draws.tolist()


@st.composite
def shot_ranges(draw):
    """A range of valid shot keys: any step, either direction, often at the top of the key range."""
    step = draw(st.one_of(st.integers(1, 9), st.integers(-9, -1), st.integers(-(2**64), 2**64).filter(bool)))
    length = draw(st.integers(0, min(6, (2**64 - 1) // abs(step) + 1)))
    span = abs(step) * max(length - 1, 0)
    low = draw(st.one_of(st.just(0), st.just(2**64 - 1 - span), st.integers(0, 2**64 - 1 - span)))
    first = low if step > 0 else low + span
    return range(first, first + step * length, step)


def assert_rows_equal_streams(seed, groups):
    arrays = shot_draws(seed, groups)
    assert len(arrays) == len(groups)
    for (shots, k), rows in zip(groups, arrays):
        assert rows.shape == (len(shots), k)
        for row, shot in zip(rows, shots):
            assert np.array_equal(row, shot_stream(seed, shot).random(k))


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_rows_equal_scalar_draws_of_each_stream(seed):
    shots = range(3, 40, 6)
    (rows,) = shot_draws(seed, [(shots, 9)])
    assert rows.shape == (len(shots), 9)
    for row, shot in zip(rows, shots):
        stream = shot_stream(seed, shot)
        assert row.tolist() == [stream.random() for _ in range(9)]
        assert np.array_equal(row, shot_stream(seed, shot).random(9))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [1, 3, 4, 5, 84])
def test_key_range_edges(seed, k):
    """Shots at both ends of the 64-bit key range, and counters past one block."""
    assert_rows_equal_streams(seed, [(range(0, 3), k), (range(2**64 - 3, 2**64), k)])


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_protocol_schedule_groups(seed):
    """One group per schedule entry, as `run_experiment` draws a block of shots.

    The groups stride by the schedule period, start mid-period as a block
    boundary does, and have ragged widths: 3 draws per word when noisy.
    """
    period, start, stop = 7, 4100, 4140
    widths = [3 * w for w in (4, 4, 6, 1, 12, 28, 5)]
    groups = [
        (range(start + (entry - start) % period, stop, period), widths[entry])
        for entry in range(period)
    ]
    assert_rows_equal_streams(seed, groups)


def test_ragged_per_shot_widths():
    groups = [(range(shot, shot + 1), shot % 23) for shot in range(60)]
    assert_rows_equal_streams(12345, groups)


def test_reverse_and_empty_groups():
    assert_rows_equal_streams(
        9, [(range(20, 2, -3), 6), (range(5, 5), 4), (range(4), 0), (range(1), 1)]
    )


def test_groups_span_passes(monkeypatch):
    """Lane passes that cut through groups and shots give the same rows."""
    groups = [(range(shot, 90, 3), 4 * (shot + 1) - 1) for shot in range(3)]
    whole = shot_draws(3, groups)
    monkeypatch.setattr(numpy_draws, "LANES", 5)
    for a, b in zip(whole, shot_draws(3, groups)):
        assert np.array_equal(a, b)
    assert_rows_equal_streams(3, groups)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    shot=st.integers(0, 2**64 - 1),
    k=st.integers(0, 40),
)
def test_property_one_shot(seed, shot, k):
    assert_rows_equal_streams(seed, [(range(shot, shot + 1), k)])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    shot=st.integers(0, 2**64 - 1),
    k=st.integers(0, 48),
)
@example(seed=2**64 - 1, shot=2**64 - 1, k=48)
@example(seed=0, shot=0, k=0)
def test_property_plain_words(seed, shot, k):
    """One shot's packed words against NumPy's raw Philox words, its generator and the numpy kernel."""
    ((words,),) = packed_rows(seed, [(range(shot, shot + 1), k)])
    assert words == raw_words(seed, shot, k)
    draws = [(x >> 11) * 2.0**-53 for x in words]
    assert draws == shot_stream(seed, shot).random(k).tolist()
    assert draws == shot_draws(seed, [(range(shot, shot + 1), k)])[0][0].tolist()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 4, 2**64 - 1)),
    groups=st.lists(st.tuples(shot_ranges(), st.integers(0, 13)), max_size=12),
)
@example(seed=2**64 - 1, groups=[(range(2**64 - 1, 2**64 - 8, -3), 7), (range(0), 5), (range(4), 0)])
def test_property_packed_groups(seed, groups):
    """Groups of any ranges and widths, as one call: each row is that shot's own stream."""
    assert_packed_rows_equal_numpy(seed, groups)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_plain_words_of_strided_shots(seed):
    """Rows of a strided range, as one schedule entry of a block reads them, and an empty range."""
    shots = range(2**64 - 40, 2**64, 7)
    assert_packed_rows_equal_numpy(seed, [(shots, 13)])
    assert packed_words(seed, [(range(5, 5), 13)]) == [[b""] * 13]
    assert packed_words(seed, []) == []


@pytest.mark.parametrize("lanes", [1, 2, 5, 4096])
def test_packed_passes_cut_anywhere(monkeypatch, lanes):
    """Many groups, as `run_experiment` draws a block of n = 13 in context; any pass size."""
    monkeypatch.setattr(rng, "PACKED_LANES", lanes)
    period, start, stop = 80, 4100, 4400
    groups = [
        (range(start + (entry - start) % period, stop, period), 3 * (entry % 29))
        for entry in range(period)
    ]
    assert_packed_rows_equal_numpy(2**64 - 1, groups)


def test_empty_range():
    assert shot_draws(1, [(range(0), 4)])[0].shape == (0, 4)
    assert shot_draws(1, []) == []


def test_negative_keys_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        shot_draws(-1, [(range(2), 3)])
    with pytest.raises(ValueError, match="non-negative"):
        shot_draws(1, [(range(-2, 2), 3)])
    with pytest.raises(ValueError, match="non-negative"):
        shot_stream(0, -1)
    with pytest.raises(ValueError, match="draw count"):
        shot_draws(1, [(range(2), -1)])
    with pytest.raises(ValueError, match="non-negative"):
        packed_words(-1, [(range(2), 3)])
    with pytest.raises(ValueError, match="non-negative"):
        packed_words(1, [(range(-2, 2), 3)])
    with pytest.raises(ValueError, match="draw count"):
        packed_words(1, [(range(2), 3), (range(2), -1)])


def test_keys_beyond_64_bits_rejected():
    # Reducing them modulo 2**64 would give seed 2**64 + 1 the streams of seed 1.
    with pytest.raises(ValueError, match="below 2"):
        shot_draws(2**64 + 1, [(range(2), 3)])
    with pytest.raises(ValueError, match="below 2"):
        shot_draws(1, [(range(2**64 - 1, 2**64 + 1), 3)])
    with pytest.raises(ValueError, match="below 2"):
        shot_stream(2**64, 0)
    with pytest.raises(ValueError, match="below 2"):
        packed_words(2**64 + 1, [(range(2), 3)])
    with pytest.raises(ValueError, match="below 2"):
        packed_words(1, [(range(2**64 - 1, 2**64 + 1), 3)])
    # A bad seed is refused even when no shot is drawn, as `shot_draws` does.
    with pytest.raises(ValueError, match="below 2"):
        packed_words(2**64, [(range(0), 3)])
    with pytest.raises(ValueError, match="below 2"):
        packed_words(2**64, [])
