"""Keyframe correspondences, per-epoch fits, and the relative transform."""

from __future__ import annotations

import numpy as np
import pytest

from cloudchange import (
    DegenerateInput,
    EpochAlignment,
    MisalignedInputs,
    PointCloud,
    TooFewCorrespondences,
    build_keyframe_correspondences,
    compose_relative,
    estimate_epoch_alignment,
)
from cloudchange import coarse
from cloudchange.cloud import median_confidence_mask

from conftest import identity_sim3, random_sim3


def _aligned_pair(rng, n, confidence=None):
    pts = rng.normal(size=(n, 3))
    conf = confidence if confidence is not None else rng.uniform(0.0, 1.0, n)
    return PointCloud(pts, conf), PointCloud(pts + 100.0, conf)


class TestBuildKeyframeCorrespondences:
    def test_small_input_skips_subsampling(self, rng):
        epoch, joint = _aligned_pair(rng, 10)
        src, tgt = build_keyframe_correspondences(epoch, joint, 1)
        expected = int((epoch.confidence > np.sort(epoch.confidence)[4]).sum())
        assert len(src) == expected
        np.testing.assert_array_equal(tgt - src, 100.0)

    def test_cap_forces_exact_count_and_is_reproducible(self, rng):
        epoch, joint = _aligned_pair(rng, 20000)
        src_a, tgt_a = build_keyframe_correspondences(epoch, joint, 1)
        src_b, tgt_b = build_keyframe_correspondences(epoch, joint, 1)
        src_c, _ = build_keyframe_correspondences(epoch, joint, 2)
        assert len(src_a) == coarse.CORRESPONDENCE_CAP == 5000
        np.testing.assert_array_equal(src_a, src_b)
        np.testing.assert_array_equal(tgt_a, tgt_b)
        assert not np.array_equal(src_a, src_c)
        # The draw of a generator seeded with [0, epoch_id].
        kept = np.nonzero(median_confidence_mask(epoch.confidence))[0]
        draw = np.random.default_rng([0, 1]).choice(kept, size=5000, replace=False)
        np.testing.assert_array_equal(src_a, epoch.points[np.sort(draw)])

    def test_pairing_preserved_under_subsampling(self, rng, monkeypatch):
        monkeypatch.setattr(coarse, "CORRESPONDENCE_CAP", 300)
        epoch, joint = _aligned_pair(rng, 12000)
        src, tgt = build_keyframe_correspondences(epoch, joint, 1)
        assert len(src) == 300
        np.testing.assert_array_equal(tgt - src, 100.0)

    def test_median_filter_applied_on_per_epoch_confidence(self, rng):
        pts = rng.normal(size=(100, 3))
        conf = np.concatenate([np.full(50, 0.2), np.full(50, 0.9)])
        epoch = PointCloud(pts, conf)
        joint = PointCloud(pts, np.full(100, 1.0))
        src, _ = build_keyframe_correspondences(epoch, joint, 1)
        np.testing.assert_array_equal(np.sort(src, axis=0), np.sort(pts[50:], axis=0))

    def test_length_mismatch(self, rng):
        epoch, _ = _aligned_pair(rng, 10)
        joint = PointCloud(rng.normal(size=(11, 3)))
        with pytest.raises(MisalignedInputs):
            build_keyframe_correspondences(epoch, joint, 1)

    def test_too_few_survivors(self, rng):
        epoch, joint = _aligned_pair(rng, 3, confidence=np.array([0.1, 0.2, 0.9]))
        with pytest.raises(TooFewCorrespondences, match="epoch 1: only 1 correspondences"):
            build_keyframe_correspondences(epoch, joint, 1)

    @pytest.mark.parametrize("n", [0, 2])
    def test_too_few_points_name_the_epoch(self, n):
        cloud = PointCloud(np.zeros((n, 3)))
        with pytest.raises(TooFewCorrespondences, match=f"epoch 2: its keyframes hold {n} points"):
            build_keyframe_correspondences(cloud, cloud, 2)


class TestEstimateEpochAlignment:
    def test_exact_recovery_of_generating_transform(self, rng):
        gt = random_sim3(rng)
        src = rng.normal(size=(500, 3))
        alignment = estimate_epoch_alignment(src, gt.apply(src), epoch_id=1)
        assert abs(alignment.transform.scale - gt.scale) <= 1e-9 * gt.scale
        assert np.abs(alignment.transform.rotation - gt.rotation).max() <= 1e-9
        assert alignment.residual_rms <= 1e-9
        assert alignment.n_correspondences == 500

    def test_identity_correspondences(self, rng):
        pts = rng.normal(size=(40, 3))
        alignment = estimate_epoch_alignment(pts, pts)
        assert alignment.transform.scale == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(alignment.transform.rotation, np.eye(3), atol=1e-12)

    def test_two_pairs_degenerate(self, rng):
        pts = rng.normal(size=(2, 3))
        with pytest.raises(DegenerateInput):
            estimate_epoch_alignment(pts, pts)

    def test_alignment_requires_three_correspondences(self, rng):
        with pytest.raises(ValueError):
            EpochAlignment(1, identity_sim3(), 2, 0.0)


class TestCoarseRelativeTransform:
    def test_equal_alignments_cancel(self, rng):
        t = random_sim3(rng)
        a1 = EpochAlignment(1, t, 100, 0.0)
        a2 = EpochAlignment(2, t, 100, 0.0)
        rel = compose_relative(a1.transform, a2.transform)
        assert rel.scale == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rel.translation, np.zeros(3), atol=1e-12)

    def test_identity_second_epoch(self, rng):
        t = random_sim3(rng)
        a1 = EpochAlignment(1, t, 50, 0.0)
        a2 = EpochAlignment(2, identity_sim3(), 50, 0.0)
        rel = compose_relative(a1.transform, a2.transform)
        np.testing.assert_allclose(rel.rotation, t.rotation, atol=1e-15)
        assert rel.scale == t.scale

    def test_synthetic_known_transforms(self, rng):
        # Noise-free end-to-end: fit both epochs against a shared frame and
        # compare the composition with the ground-truth relative transform.
        world = rng.uniform(-5.0, 5.0, size=(2000, 3))
        t1, t2 = random_sim3(rng), random_sim3(rng)
        cloud1 = t1.inverse().apply(world)
        cloud2 = t2.inverse().apply(world)
        a1 = estimate_epoch_alignment(cloud1, world, epoch_id=1)
        a2 = estimate_epoch_alignment(cloud2, world, epoch_id=2)
        rel = compose_relative(a1.transform, a2.transform)
        gt = compose_relative(t1, t2)
        assert abs(rel.scale - gt.scale) <= 1e-9 * gt.scale
        assert np.abs(rel.rotation - gt.rotation).max() <= 1e-9
        assert np.linalg.norm(rel.translation - gt.translation) <= 1e-9 * (
            1.0 + np.linalg.norm(gt.translation)
        )

    def test_swap_scale_product_is_one(self, rng):
        t1, t2 = random_sim3(rng), random_sim3(rng)
        a1 = EpochAlignment(1, t1, 10, 0.0)
        a2 = EpochAlignment(2, t2, 10, 0.0)
        b1 = EpochAlignment(1, t2, 10, 0.0)
        b2 = EpochAlignment(2, t1, 10, 0.0)
        forward = compose_relative(a1.transform, a2.transform).scale
        backward = compose_relative(b1.transform, b2.transform).scale
        assert forward * backward == pytest.approx(1.0, abs=1e-12)

    def test_noise_robustness(self, rng):
        # Gaussian correspondence noise of 1% of extent over >= 1000 pairs:
        # scale within 0.5% and rotation within 0.5 degrees in at least 95
        # of 100 seeded trials.
        passes = 0
        for trial in range(100):
            trial_rng = np.random.default_rng([99, trial])
            world = trial_rng.uniform(0.0, 10.0, size=(1500, 3))
            t1 = random_sim3(trial_rng)
            t2 = random_sim3(trial_rng)
            sigma = 0.01 * 10.0
            a1 = estimate_epoch_alignment(
                t1.inverse().apply(world),
                world + trial_rng.normal(0.0, sigma, world.shape),
                epoch_id=1,
            )
            a2 = estimate_epoch_alignment(
                t2.inverse().apply(world),
                world + trial_rng.normal(0.0, sigma, world.shape),
                epoch_id=2,
            )
            rel = compose_relative(a1.transform, a2.transform)
            gt = compose_relative(t1, t2)
            scale_err = abs(rel.scale / gt.scale - 1.0)
            cos = (np.trace(rel.rotation @ gt.rotation.T) - 1.0) / 2.0
            angle_deg = np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))
            if scale_err < 0.005 and angle_deg < 0.5:
                passes += 1
        assert passes >= 95
