"""Bidirectional change scoring, thresholding, and the color ramp."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from cloudchange import (
    EmptyCloud,
    PointCloud,
    SpatialIndex,
    change_scores,
    classify_changes,
    color_ramp_table,
    colorize,
)
from cloudchange import changes
from cloudchange.changes import _scores_to_colors


def _clouds_with_far_cluster(rng, n1: int, n2: int) -> tuple:
    """Two Gaussian clouds; the last tenth (at least one row) of the first
    lies far beyond 4 tau of everything in the second."""
    a = rng.normal(size=(n1, 3))
    b = rng.normal(size=(n2, 3))
    a[n1 - max(1, n1 // 10) :] += 100.0
    return a, b


def _lattice_clouds(rng, n1: int, n2: int) -> tuple:
    """Integer-lattice clouds, offset by half a step in x: most nearest
    neighbors are exact ties, and some points repeat."""
    a = rng.integers(0, 8, size=(n1, 3)).astype(np.float64)
    b = rng.integers(0, 8, size=(n2, 3)) + np.array([0.5, 0.0, 0.0])
    return a, b


class TestChangeScores:
    def test_identical_clouds_score_zero(self, rng):
        cloud = PointCloud(rng.normal(size=(100, 3)))
        forward, backward, _ = change_scores(cloud, cloud)
        assert (forward == 0.0).all()
        assert (backward == 0.0).all()

    def test_single_displaced_point(self, rng):
        pts = rng.uniform(0, 10, size=(60, 3))
        moved = pts.copy()
        moved[7] += np.array([0.5, 0.0, 0.0])
        _, backward, _ = change_scores(PointCloud(pts), PointCloud(moved))
        # The displaced point's backward score reaches at least its distance
        # to the nearest original point; all other points are untouched.
        assert backward[7] > 0.0
        untouched = np.delete(backward, 7)
        assert (untouched == 0.0).all()

    def test_matches_brute_force(self, rng):
        # Sizes 1, 2 and 3 and an odd size of many leaves put the scatter back
        # and both dealt runs at their edges, in both directions.
        for n1, n2 in [(300, 300), (1, 1), (1, 2), (2, 3), (3, 1001), (1001, 2), (1001, 1001)]:
            for a, b in (_clouds_with_far_cluster(rng, n1, n2), _lattice_clouds(rng, n1, n2)):
                scored_forward, scored_backward, _ = change_scores(PointCloud(a), PointCloud(b))
                forward = np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)).min(1)
                backward = np.sqrt(np.sum((b[:, None, :] - a[None, :, :]) ** 2, axis=2)).min(1)
                assert (scored_forward == forward).all(), (n1, n2)
                assert (scored_backward == backward).all(), (n1, n2)

    def test_swap_exchanges_directions_exactly(self, rng):
        a = PointCloud(rng.normal(size=(80, 3)))
        b = PointCloud(rng.normal(size=(90, 3)))
        ab_forward, ab_backward, _ = change_scores(a, b)
        ba_forward, ba_backward, _ = change_scores(b, a)
        assert (ab_forward == ba_backward).all()
        assert (ab_backward == ba_forward).all()

    def test_empty_cloud_raises(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)))
        with pytest.raises(EmptyCloud):
            change_scores(PointCloud(np.zeros((0, 3))), cloud)

    def test_index_calls_are_sequential_on_the_calling_thread(self, rng, monkeypatch):
        # An external tracer keeps one span stack per process and fails on
        # two overlapping traced calls; building both indices and querying
        # on other threads would make that failure intermittent.
        calls, active = [], []

        def traced(name, original):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident(), len(active)))
                active.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    active.pop()

            return wrapper

        monkeypatch.setattr(changes, "build_index", traced("build", changes.build_index))
        monkeypatch.setattr(SpatialIndex, "query", traced("query", SpatialIndex.query))
        change_scores(PointCloud(rng.normal(size=(500, 3))), PointCloud(rng.normal(size=(400, 3))))
        assert calls == [(name, threading.get_ident(), 0) for name in ("build", "build", "query", "query")]


class TestClassifyChanges:
    def test_huge_tau_labels_nothing(self, rng):
        a = PointCloud(rng.normal(size=(50, 3)))
        b = PointCloud(rng.normal(size=(50, 3)))
        result = classify_changes(change_scores(a, b), tau_ratio=100.0)
        assert result.n_changed == 0

    def test_identical_clouds_label_nothing(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        result = classify_changes(change_scores(cloud, cloud), tau_ratio=0.001)
        assert result.n_changed == 0

    @pytest.mark.parametrize("tau_ratio", [-0.01, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_tau_ratio(self, rng, tau_ratio):
        scored = change_scores(PointCloud(rng.normal(size=(5, 3))), PointCloud(rng.normal(size=(5, 3))))
        with pytest.raises(ValueError, match="tau_ratio must be finite and >= 0"):
            classify_changes(scored, tau_ratio=tau_ratio)

    @pytest.mark.parametrize(
        "tau_ratio", [True, "0.01", None, 10**400], ids=["bool", "string", "none", "huge_int"]
    )
    def test_tau_ratio_must_be_a_number(self, rng, tau_ratio):
        scored = change_scores(PointCloud(rng.normal(size=(5, 3))), PointCloud(rng.normal(size=(5, 3))))
        with pytest.raises(ValueError, match="tau_ratio must be a number"):
            classify_changes(scored, tau_ratio=tau_ratio)

    def test_overflowing_tau_is_rejected(self, rng):
        scored = change_scores(PointCloud(rng.normal(size=(5, 3))), PointCloud(rng.normal(size=(5, 3))))
        with pytest.raises(ValueError, match="not finite"):
            classify_changes(scored, tau_ratio=1e308)

    def test_tau_is_ratio_times_extent(self, rng):
        a = PointCloud(rng.uniform(0, 10, size=(500, 3)))
        b = PointCloud(rng.uniform(0, 10, size=(500, 3)))
        scored = change_scores(a, b)
        result = classify_changes(scored, tau_ratio=0.02)
        assert result.tau == pytest.approx(0.02 * scored[2])
        assert result.scene_extent == scored[2]

    def test_monotone_in_tau_ratio(self, rng):
        a = PointCloud(rng.uniform(0, 10, size=(400, 3)))
        b = PointCloud(rng.uniform(0, 10, size=(400, 3)))
        scored = change_scores(a, b)
        counts = [
            classify_changes(scored, tau_ratio=ratio).n_changed
            for ratio in (0.001, 0.005, 0.01, 0.05, 0.1)
        ]
        assert all(x >= y for x, y in zip(counts, counts[1:]))

    def test_inserted_object_detected_backward(self, rng):
        # A 500-point object exists only in the second cloud; with
        # tau_ratio 0.01 its points are flagged backward and the per-point
        # F1 against construction labels is at least 0.9.
        background = rng.uniform(0, 10, size=(4000, 3))
        obj = rng.uniform(0, 1, size=(500, 3)) * 0.5 + np.array([20.0, 5.0, 5.0])
        t1 = PointCloud(background)
        t2 = PointCloud(np.vstack([background, obj]))
        result = classify_changes(change_scores(t1, t2), tau_ratio=0.01)
        truth = np.concatenate([np.zeros(4000, bool), np.ones(500, bool)])
        predicted = result.backward_labels
        tp = int((predicted & truth).sum())
        fp = int((predicted & ~truth).sum())
        fn = int((~predicted & truth).sum())
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.9
        assert not result.forward_labels.any()


class TestColorRamp:
    def test_table_anchors(self):
        table = color_ramp_table()
        assert table.shape == (256, 3)
        np.testing.assert_array_equal(table[0], [0, 0, 255])
        np.testing.assert_array_equal(table[85], [0, 255, 0])
        np.testing.assert_array_equal(table[170], [255, 255, 0])
        np.testing.assert_array_equal(table[255], [255, 0, 0])

    def test_table_matches_piecewise_linear_oracle(self):
        # Independent evaluation of the documented ramp.
        anchors = {0: (0, 0, 255), 85: (0, 255, 0), 170: (255, 255, 0), 255: (255, 0, 0)}
        keys = sorted(anchors)
        table = color_ramp_table()
        for k in range(256):
            k0 = max(key for key in keys if key <= k)
            k1 = min(key for key in keys if key >= k)
            if k0 == k1:
                expected = anchors[k0]
            else:
                f = (k - k0) / (k1 - k0)
                expected = tuple(
                    int(np.rint(a + f * (b - a)))
                    for a, b in zip(anchors[k0], anchors[k1])
                )
            assert tuple(table[k]) == expected

    def test_score_zero_is_blue(self):
        colors = _scores_to_colors(np.array([0.0]), tau=1.0, table=color_ramp_table())
        np.testing.assert_array_equal(colors[0], [0, 0, 255])

    def test_clip_at_four_tau_is_red(self):
        colors = _scores_to_colors(
            np.array([4.0, 7.5]), tau=1.0, table=color_ramp_table()
        )
        np.testing.assert_array_equal(colors[0], [255, 0, 0])
        np.testing.assert_array_equal(colors[1], [255, 0, 0])

    def test_midpoint_color_fixed_by_table(self):
        # score = 2 tau -> normalized 0.5 -> entry 128 (half rounds to
        # even) -> (129, 255, 0) from the ramp table.
        colors = _scores_to_colors(np.array([2.0]), tau=1.0, table=color_ramp_table())
        np.testing.assert_array_equal(colors[0], [129, 255, 0])

    def test_colorize_attaches_colors(self, rng):
        a = PointCloud(rng.uniform(0, 10, size=(100, 3)))
        b = PointCloud(rng.uniform(0, 10, size=(100, 3)))
        result = classify_changes(change_scores(a, b), tau_ratio=0.01)
        colored_a, colored_b = colorize(result, a, b)
        assert colored_a.color.shape == (100, 3)
        assert colored_b.color.shape == (100, 3)
        assert (colored_a.points == a.points).all()


class TestRegistrationSensitivity:
    def test_misalignment_floods_false_positives(self, rng):
        # Static-only scene: correctly aligned clouds stay below 1% changed;
        # a 5 tau translation misalignment pushes past 50%, the false-
        # positive failure mode that motivates accurate registration.
        from cloudchange.synthetic import SceneSpec, generate_scene
        from cloudchange import apply_transform

        scene = generate_scene(SceneSpec(seed=303, n_static=4000, noise_sigma=0.0005))
        aligned = apply_transform(scene.gt_relative, scene.cloud_t1)
        good = classify_changes(change_scores(aligned, scene.cloud_t2), tau_ratio=0.01)
        assert good.changed_fraction < 0.01

        tau = good.tau
        shift = 5.0 * tau * np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        shifted = PointCloud(aligned.points + shift, aligned.confidence)
        bad = classify_changes(change_scores(shifted, scene.cloud_t2), tau_ratio=0.01)
        assert bad.changed_fraction > 0.5
