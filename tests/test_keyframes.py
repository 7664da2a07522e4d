"""Temporal farthest-point keyframe selection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cloudchange import KeyframeSet, fps_temporal


class TestFpsTemporal:
    def test_budget_covers_all_frames(self):
        assert fps_temporal(10, 10).indices == tuple(range(1, 11))
        assert fps_temporal(5, 99).indices == (1, 2, 3, 4, 5)

    def test_hand_enumerated_n10_k3(self):
        # After 1 and 10, indices 5 and 6 tie at min-distance 4; the lower
        # index wins.
        assert fps_temporal(10, 3).indices == (1, 5, 10)

    def test_hand_enumerated_n100_k5(self):
        assert fps_temporal(100, 5).indices == (1, 25, 50, 75, 100)

    def test_single_frame(self):
        assert fps_temporal(1, 1).indices == (1,)

    def test_always_starts_at_one(self):
        for n in (3, 17, 64):
            for k in (1, 2, 5):
                assert 1 in fps_temporal(n, k).indices

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fps_temporal(0, 3)
        with pytest.raises(ValueError):
            fps_temporal(5, 0)

    def test_determinism(self):
        runs = {fps_temporal(137, 9).indices for _ in range(5)}
        assert len(runs) == 1

    @staticmethod
    def _max_gap(n: int, indices: tuple) -> int:
        return max(min(abs(i - k) for k in indices) for i in range(1, n + 1))

    def test_coverage_bound(self):
        for n in (10, 37, 100, 250):
            for k in (2, 3, 5, 9, 20):
                selected = fps_temporal(n, k).indices
                assert self._max_gap(n, selected) <= math.ceil(n / k)

    def test_max_gap_monotone_in_budget(self):
        for n in (29, 100):
            gaps = [self._max_gap(n, fps_temporal(n, k).indices) for k in range(1, 16)]
            assert all(a >= b for a, b in zip(gaps, gaps[1:]))


class TestKeyframeSet:
    @pytest.mark.parametrize(
        "epoch_id, indices",
        [(1, (1.5, 2.7)), (1, (1.0, 2.0)), (1, (True, 2)), (1.0, (1, 2)), (True, (1, 2))],
        ids=["fractional_index", "integral_float_index", "bool_index", "float_epoch", "bool_epoch"],
    )
    def test_integer_fields_take_only_integers(self, epoch_id, indices):
        with pytest.raises(ValueError, match="must be an integer"):
            KeyframeSet(epoch_id, indices)

    def test_numpy_integers_are_integers(self):
        keyframes = KeyframeSet(np.int64(2), np.array([1, 4]))
        assert keyframes.epoch_id == 2 and keyframes.indices == (1, 4)

    def test_validates_sorted_unique(self):
        with pytest.raises(ValueError):
            KeyframeSet(1, (3, 1, 2))
        with pytest.raises(ValueError):
            KeyframeSet(1, (1, 1, 2))
        with pytest.raises(ValueError):
            KeyframeSet(1, (0, 1))
        with pytest.raises(ValueError):
            KeyframeSet(3, (1, 2))

    def test_len(self):
        assert len(fps_temporal(40, 7).indices) == 7
