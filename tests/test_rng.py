"""Per-shot random streams and their batched draws."""

import numpy as np
import pytest

from bellcheck.rng import shot_draws, shot_stream


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 1, 2**64 - 1])
def test_draw_rows_equal_scalar_draws_of_each_stream(seed):
    shots = range(3, 40, 6)
    rows = shot_draws(seed, shots, 9)
    assert rows.shape == (len(shots), 9)
    for row, shot in zip(rows, shots):
        stream = shot_stream(seed, shot)
        assert row.tolist() == [stream.random() for _ in range(9)]
        assert np.array_equal(row, shot_stream(seed, shot).random(9))


def test_empty_range():
    assert shot_draws(1, range(0), 4).shape == (0, 4)


def test_negative_keys_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        shot_draws(-1, range(2), 3)
    with pytest.raises(ValueError, match="non-negative"):
        shot_draws(1, range(-2, 2), 3)
    with pytest.raises(ValueError, match="non-negative"):
        shot_stream(0, -1)


def test_keys_beyond_64_bits_rejected():
    # Reducing them modulo 2**64 would give seed 2**64 + 1 the streams of seed 1.
    with pytest.raises(ValueError, match="below 2"):
        shot_draws(2**64 + 1, range(2), 3)
    with pytest.raises(ValueError, match="below 2"):
        shot_draws(1, range(2**64 - 1, 2**64 + 1), 3)
    with pytest.raises(ValueError, match="below 2"):
        shot_stream(2**64, 0)
