"""Tests for worker sizing and the round-robin deal."""

import pytest

from repro.parallel.pool import default_workers, round_robin_batches


def test_default_workers_positive():
    assert default_workers() >= 1


def test_round_robin_deal():
    assert round_robin_batches([1, 2, 3, 4, 5], 2) == [(1, 3, 5), (2, 4)]
    assert round_robin_batches([1], 4) == [(1,)]
    assert round_robin_batches([], 3) == []
    with pytest.raises(ValueError):
        round_robin_batches([1], 0)
