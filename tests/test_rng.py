"""Per-shot random streams and the batched Philox kernel behind their draws.

NumPy's own `Philox` generator (`shot_stream`) is the oracle: every row
the kernel computes must equal that shot's generator draws bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck import rng
from bellcheck.rng import shot_draws, shot_stream

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**40 + 1, 2**64 - 1]


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
    monkeypatch.setattr(rng, "LANES", 5)
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


def test_keys_beyond_64_bits_rejected():
    # Reducing them modulo 2**64 would give seed 2**64 + 1 the streams of seed 1.
    with pytest.raises(ValueError, match="below 2"):
        shot_draws(2**64 + 1, [(range(2), 3)])
    with pytest.raises(ValueError, match="below 2"):
        shot_draws(1, [(range(2**64 - 1, 2**64 + 1), 3)])
    with pytest.raises(ValueError, match="below 2"):
        shot_stream(2**64, 0)
