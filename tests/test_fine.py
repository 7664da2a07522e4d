"""Static-set purification and the degradation-free translation refinement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cloudchange import (
    EmptyCloud,
    EmptyStaticSet,
    PointCloud,
    Sim3Transform,
    apply_transform,
    build_index,
    fine_stage,
    lower_median,
    purify,
    refine_translation,
)
from cloudchange import fine
from cloudchange.cloud import SpatialIndex
from cloudchange.fine import ALPHA, MIN_STATIC_POINTS, PurificationResult, _refined_median
from cloudchange.geometry import rotate
from cloudchange.pipeline import register_epochs
from cloudchange.synthetic import (
    ChangeSpec,
    SceneSpec,
    all_frames_keyframes,
    generate_scene,
    mock_joint_inference,
)

from conftest import identity_sim3, random_rotation, random_sim3


def _identity_with_translation(t):
    return Sim3Transform(1.0, np.eye(3), np.asarray(t, dtype=float))


def _rotated(coarse, source):
    """The source under the coarse scale and rotation, without its translation."""
    return coarse.scale * rotate(source.points, coarse.rotation)


class TestPurify:
    def test_uniform_distances_all_static(self, rng):
        target_pts = rng.normal(size=(50, 3)) * 10.0
        # Every source point sits exactly 0.2 away from its target.
        offsets = rng.normal(size=(50, 3))
        offsets = 0.2 * offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
        source = PointCloud(target_pts + offsets)
        result = purify(source, build_index(PointCloud(target_pts)))
        assert ALPHA * result.median_distance == pytest.approx(0.6)
        assert result.static_mask.all()

    def test_nine_small_one_large(self):
        # Distances: nine of 0.1 and one of 10 -> median 0.1, threshold 0.3,
        # static set exactly the nine.
        target = PointCloud(np.stack([np.arange(10.0) * 100, np.zeros(10), np.zeros(10)], 1))
        src_pts = target.points.copy()
        src_pts[:9, 1] += 0.1
        src_pts[9, 1] += 10.0
        result = purify(PointCloud(src_pts), build_index(target))
        np.testing.assert_allclose(result.distances[:9], 0.1)
        assert result.median_distance == pytest.approx(0.1)
        assert ALPHA * result.median_distance == pytest.approx(0.3)
        assert result.static_mask.tolist() == [True] * 9 + [False]

    def test_empty_cloud(self, rng):
        index = build_index(PointCloud(rng.normal(size=(5, 3))))
        with pytest.raises(EmptyCloud):
            purify(PointCloud(np.zeros((0, 3))), index)

    def test_threshold_invariant(self, rng):
        src = PointCloud(rng.normal(size=(200, 3)))
        index = build_index(PointCloud(rng.normal(size=(200, 3))))
        result = purify(src, index)
        np.testing.assert_array_equal(
            result.static_mask, result.distances < ALPHA * result.median_distance
        )


class TestRefineTranslation:
    def test_exact_coincidence_returns_coarse_translation(self, rng):
        coarse = random_sim3(rng)
        source = PointCloud(rng.normal(size=(120, 3)))
        target = apply_transform(coarse, source)
        index = build_index(target)
        result = purify(target, index)
        # Force a full static mask; exact coincidence yields zero distances
        # and an empty strict static set otherwise.
        full = type(result)(
            distances=result.distances,
            nn_indices=result.nn_indices,
            static_mask=np.ones(len(source), bool),
            median_distance=result.median_distance,
        )
        refined = refine_translation(_rotated(coarse, source), index, full)
        np.testing.assert_allclose(refined, coarse.translation, atol=1e-9)

    def test_recovers_constructed_shift(self, rng):
        # Every target is the coarse-aligned source shifted by delta; the
        # refined translation must equal coarse translation + delta.
        delta = np.array([0.1, 0.0, -0.2])
        coarse = random_sim3(rng)
        source = PointCloud(rng.uniform(-5, 5, size=(200, 3)))
        target = PointCloud(apply_transform(coarse, source).points + delta)
        index = build_index(target)
        aligned = apply_transform(coarse, source)
        result = purify(aligned, index)
        assert result.static_mask.all()
        refined = refine_translation(_rotated(coarse, source), index, result)
        np.testing.assert_allclose(refined, coarse.translation + delta, atol=1e-12)

    def test_mask_excludes_gross_outliers(self, rng):
        # 70% static points shifted by delta plus 30% gross outliers that the
        # mask excludes: the refinement still lands on coarse + delta.
        delta = np.array([0.05, -0.03, 0.08])
        coarse = _identity_with_translation([1.0, 2.0, 3.0])
        n_static, n_outlier = 140, 60
        src_static = rng.uniform(0, 10, size=(n_static, 3))
        src_outlier = rng.uniform(0, 10, size=(n_outlier, 3))
        source = PointCloud(np.vstack([src_static, src_outlier]))
        target_pts = np.vstack(
            [
                coarse.apply(src_static) + delta,
                coarse.apply(src_outlier) + rng.uniform(40, 80, size=(n_outlier, 3)),
            ]
        )
        index = build_index(PointCloud(target_pts))
        aligned = apply_transform(coarse, source)
        result = purify(aligned, index)
        assert result.static_mask[:n_static].sum() == n_static
        refined = refine_translation(_rotated(coarse, source), index, result)
        np.testing.assert_allclose(refined, coarse.translation + delta, atol=1e-9)

    def test_empty_static_set_raises(self, rng):
        coarse = identity_sim3()
        source = PointCloud(rng.normal(size=(10, 3)))
        index = build_index(source)
        distances, nn_idx = index.query(source.points + 0.01)
        result = PurificationResult(
            distances, nn_idx, np.zeros(len(source), bool), lower_median(distances)
        )
        with pytest.raises(EmptyStaticSet):
            refine_translation(_rotated(coarse, source), index, result)


class TestFineStage:
    def test_pair_100k_samples_its_band(self, monkeypatch):
        """A 100k-static-point pair: the self-check samples its band, queries
        fewer points than the band holds and matches an unbounded query."""
        n = 100_000
        scene = generate_scene(SceneSpec(
            seed=1, n_static=n, n_frames_per_epoch=30, noise_sigma=0.002,
            edge_noise_fraction=0.15, edge_noise_elongation=0.3,
            change_spec=(
                ChangeSpec("added", n // 20), ChangeSpec("removed", n // 25),
                ChangeSpec("moved", n // 16, (1.0, 0.8, 0.3)),
            ),
        ))
        joint = mock_joint_inference(
            scene, all_frames_keyframes(scene), sigma=0.005, epoch_bias=0.005, frame_drift=0.005
        )
        refined_median, medians = fine._refined_median, []

        def checked(index, shifted, purification, step):
            median = refined_median(index, shifted, purification, step)
            medians.append((median, lower_median(index.query(shifted)[0])))
            return median

        monkeypatch.setattr(fine, "_refined_median", checked)
        _, sizes = _record_queries(monkeypatch)
        result = register_epochs(scene.epoch_frames(1), scene.epoch_frames(2), joint).fine
        # Purify's sample and query, the band sample and the narrowed query,
        # then the unbounded reference.  Every 16th band point is sampled, so
        # the band holds more than 16 * (sizes[2] - 1) points.
        assert len(sizes) == 5 and sizes[3] < 16 * (sizes[2] - 1)
        assert medians == [(result.refined_median_residual,) * 2]

    def test_perfect_alignment_reverts_to_coarse(self, rng):
        coarse = random_sim3(rng)
        source = PointCloud(rng.normal(size=(300, 3)))
        target = apply_transform(coarse, source)
        result = fine_stage(source, target, coarse)
        assert not result.accepted_refinement
        assert result.transform is coarse
        assert result.coarse_median_residual == 0.0

    def test_guard_keeps_coarse_below_hundred_points(self, rng):
        # 99 points, even when all of them are static.
        coarse = _identity_with_translation([0.0, 0.0, 0.0])
        pts = rng.uniform(0, 10, size=(99, 3))
        source = PointCloud(pts)
        target = PointCloud(pts + rng.normal(0, 0.01, size=(99, 3)))
        result = fine_stage(source, target, coarse)
        assert result.n_static <= 99
        assert not result.accepted_refinement
        assert result.transform is coarse

    def test_recovers_translation_perturbation(self, rng):
        # A grid-structured cloud with a known coarse translation error:
        # the refinement recovers the truth almost exactly.
        grid = np.stack(
            np.meshgrid(*[np.linspace(0, 10, 8)] * 3, indexing="ij"), -1
        ).reshape(-1, 3)
        gt = _identity_with_translation([0.0, 0.0, 0.0])
        delta = np.array([0.3, -0.2, 0.25])
        coarse = _identity_with_translation(delta)
        source = PointCloud(grid)
        target = PointCloud(grid)
        result = fine_stage(source, target, coarse)
        assert result.accepted_refinement
        np.testing.assert_allclose(result.transform.translation, gt.translation, atol=1e-9)
        assert result.refined_median_residual < result.coarse_median_residual

    def test_adversarial_scene_never_degrades(self, monkeypatch):
        # Scenes where every point moved: whatever the candidate translation
        # is, the returned translation's median residual never exceeds the
        # coarse one.  Verified over 100 seeded adversarial scenes.
        monkeypatch.setattr("cloudchange.fine.MIN_STATIC_POINTS", 1)
        for trial in range(100):
            rng = np.random.default_rng([7, trial])
            n = 300
            source = PointCloud(rng.uniform(0, 10, size=(n, 3)))
            # All-changed: an unrelated cloud.
            target = PointCloud(rng.uniform(0, 10, size=(n, 3)))
            coarse = Sim3Transform(
                1.0, np.eye(3), rng.normal(0.0, 0.5, 3)
            )
            result = fine_stage(source, target, coarse)
            final = result.transform
            index = build_index(target)
            d_final, _ = index.query(apply_transform(final, source).points)
            d_coarse, _ = index.query(apply_transform(coarse, source).points)
            assert lower_median(d_final) <= lower_median(d_coarse)

    def test_scale_rotation_bitwise_locked(self, rng):
        source = PointCloud(rng.uniform(0, 10, size=(500, 3)))
        target = PointCloud(rng.uniform(0, 10, size=(500, 3)))
        coarse = random_sim3(rng)
        result = fine_stage(source, target, coarse)
        final = result.transform
        assert final.scale == coarse.scale
        assert (final.rotation == coarse.rotation).all()

    def test_lever_arm_rotation_error_not_worsened(self, rng):
        # Inject a 1 degree rotation error into the coarse transform; the
        # fine stage may only change t and must not raise the median
        # residual.
        grid = np.stack(
            np.meshgrid(*[np.linspace(0, 10, 9)] * 3, indexing="ij"), -1
        ).reshape(-1, 3)
        angle = np.radians(1.0)
        k = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0.0]])
        wobble = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
        coarse = Sim3Transform(1.0, wobble, np.array([0.1, 0.0, -0.1]))
        source = PointCloud(grid)
        target = PointCloud(grid)
        result = fine_stage(source, target, coarse)
        moved = (result.transform.translation != coarse.translation).any()
        assert moved or not result.accepted_refinement
        assert result.refined_median_residual <= result.coarse_median_residual or (
            not result.accepted_refinement
        )
        final = result.transform
        index = build_index(target)
        d_final, _ = index.query(apply_transform(final, source).points)
        d_coarse, _ = index.query(apply_transform(coarse, source).points)
        assert lower_median(d_final) <= lower_median(d_coarse)
        assert (final.rotation == coarse.rotation).all()

    def test_translation_concentrates_with_static_count(self):
        # With >= 100 static pairs and i.i.d. pair noise sigma, the refined
        # translation error stays below 3 sigma / sqrt(n_static) in at
        # least 95 of 100 trials.
        passes = 0
        for trial in range(100):
            rng = np.random.default_rng([13, trial])
            grid = np.stack(
                np.meshgrid(*[np.linspace(0, 10, 7)] * 3, indexing="ij"), -1
            ).reshape(-1, 3)
            sigma = 0.02
            noise = rng.normal(0.0, sigma, size=grid.shape)
            delta = np.array([0.2, 0.1, -0.15])
            source = PointCloud(grid)
            target = PointCloud(grid + noise)
            coarse = _identity_with_translation(delta)
            result = fine_stage(source, target, coarse)
            if not result.accepted_refinement:
                continue
            err = np.linalg.norm(result.transform.translation - np.zeros(3))
            if err < 3.0 * sigma / np.sqrt(result.n_static):
                passes += 1
        assert passes >= 95

    def test_rotates_the_source_once(self, monkeypatch):
        # Purify, the refinement and the self-check share one rotation.
        source, target, coarse = _accepted_scene()
        calls = []

        def counting(points, rotation):
            calls.append(len(points))
            return rotate(points, rotation)

        monkeypatch.setattr("cloudchange.fine.rotate", counting)
        monkeypatch.setattr("cloudchange.geometry.rotate", counting)
        result = fine_stage(source, target, coarse)
        assert result.accepted_refinement
        assert calls == [len(source)]

    def test_empty_inputs_raise(self, rng):
        cloud = PointCloud(rng.normal(size=(5, 3)))
        with pytest.raises(EmptyCloud):
            fine_stage(PointCloud(np.zeros((0, 3))), cloud, identity_sim3())
        with pytest.raises(EmptyCloud):
            fine_stage(cloud, PointCloud(np.zeros((0, 3))), identity_sim3())

    def test_accepted_flag_consistency(self, rng, monkeypatch):
        # accepted_refinement=False implies the translation IS the coarse
        # translation, bit for bit.  Random pairs are accepted; noisy copies
        # under the identity often fail the self-check; a static minimum
        # above the point count skips the refinement altogether.
        cases = []
        for trial in range(20):
            trial_rng = np.random.default_rng([21, trial])
            source = trial_rng.uniform(0, 10, size=(400, 3))
            target = trial_rng.uniform(0, 10, size=(400, 3))
            cases.append((source, target, random_sim3(trial_rng), MIN_STATIC_POINTS))
            noise = np.random.default_rng([22, trial]).normal(scale=0.01, size=target.shape)
            cases.append((target + noise, target, identity_sim3(), MIN_STATIC_POINTS))
            cases.append((target + noise, target, identity_sim3(), len(target) + 1))
        outcomes = set()
        for source, target, coarse, min_static in cases:
            monkeypatch.setattr("cloudchange.fine.MIN_STATIC_POINTS", min_static)
            result = fine_stage(PointCloud(source), PointCloud(target), coarse)
            skipped = result.n_static < min_static
            outcomes.add((result.accepted_refinement, skipped))
            if not result.accepted_refinement:
                assert result.transform is coarse
                if skipped:
                    assert result.refined_median_residual == result.coarse_median_residual
                else:
                    assert result.refined_median_residual >= result.coarse_median_residual
            else:
                assert result.refined_median_residual < result.coarse_median_residual
        assert outcomes == {(True, False), (False, False), (False, True)}


def _exact_reference(source, target, coarse, min_static):
    """The fine stage computed with unbounded queries only.

    Returns the expected FineResult fields and the purification's median,
    threshold, static mask and static neighbors.
    """
    index = build_index(target)
    distances, nn_idx = index.query(coarse.apply(source.points))
    median = lower_median(distances)
    threshold = ALPHA * median
    static = distances < threshold
    purification = (median, threshold, static, nn_idx[static])
    n_static = int(static.sum())
    if n_static < min_static:
        return (coarse.translation, False, median, median, n_static), purification
    rotated = coarse.scale * (source.points[static] @ coarse.rotation.T)
    candidate = np.mean(index.points[nn_idx[static]] - rotated, axis=0)
    shifted = Sim3Transform(coarse.scale, coarse.rotation, candidate).apply(source.points)
    refined, _ = index.query(shifted)
    refined_median = lower_median(refined)
    accepted = refined_median < median
    translation = candidate if accepted else coarse.translation
    return (translation, accepted, median, refined_median, n_static), purification


def _record_queries(monkeypatch) -> tuple:
    """Record the search bound and the point count of every SpatialIndex.query call."""
    bounds, sizes = [], []
    query = SpatialIndex.query

    def recording(self, query_points, upper_bound=np.inf):
        bounds.append(upper_bound)
        sizes.append(len(query_points))
        return query(self, query_points, upper_bound)

    monkeypatch.setattr(SpatialIndex, "query", recording)
    return bounds, sizes


def _purify_fallback_scene():
    """Purify's sampled source points sit 0.01 from the target, the rest 1.0 away.

    Purify's strided sample then guesses a median of 0.01 and bounds its
    search at 2 * 3 * 0.01, below the true median of 1.0.
    """
    target = np.stack(np.meshgrid(*[np.arange(8.0) * 10.0] * 3, indexing="ij"), -1).reshape(-1, 3)
    offsets = np.full(len(target), 1.0)
    offsets[:: fine._SAMPLE_STRIDE] = 0.01
    source = target + offsets[:, None] * np.array([0.0, 0.0, 1.0])
    return PointCloud(source), PointCloud(target)


def _triangle_bound_scene():
    """A rejected refinement whose median reaches the triangle bound.

    The 60 points 1.0 above their targets (rows 0 and 41-99, the median, and
    purify's sampled rows) and the 40 points 2.5 below theirs (rows 1-40)
    are all static, below ALPHA times the median.  The candidate moves every
    point up by 0.4, so the refined median is 1.4: exactly the coarse median
    plus the length of the update, and exactly the upper end of the
    self-check's bracket before its margin.
    """
    axis = np.arange(10.0) * 10.0
    target = np.stack(np.meshgrid(axis, axis, [0.0], indexing="ij"), -1).reshape(-1, 3)
    shift = np.where((np.arange(100) >= 1) & (np.arange(100) <= 40), -2.5, 1.0)
    source = target + shift[:, None] * np.array([0.0, 0.0, 1.0])
    return PointCloud(source), PointCloud(target)


def _accepted_scene():
    """Two independent uniform clouds under a random Sim(3): refinement accepted."""
    rng = np.random.default_rng([21, 0])
    source = PointCloud(rng.uniform(0, 10, size=(400, 3)))
    target = PointCloud(rng.uniform(0, 10, size=(400, 3)))
    return source, target, random_sim3(rng)


def _self_check_rejected_scene():
    """A noisy copy of the target at identity: the self-check rejects."""
    target = np.random.default_rng([21, 1]).uniform(0, 10, size=(400, 3))
    noise = np.random.default_rng([22, 1]).normal(scale=0.01, size=target.shape)
    return PointCloud(target + noise), PointCloud(target), identity_sim3()


class TestBoundedQueriesMatchExactReference:
    """The bounded fine stage reproduces the unbounded one bit for bit."""

    def _assert_matches(self, source, target, coarse, min_static=MIN_STATIC_POINTS):
        """Compare with the exact reference; return the result and the bounds
        and point counts of its queries."""
        expected, (median, threshold, static, static_nn) = _exact_reference(
            source, target, coarse, min_static
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            bounds, sizes = _record_queries(monkeypatch)
            monkeypatch.setattr("cloudchange.fine.MIN_STATIC_POINTS", min_static)
            result = fine_stage(source, target, coarse)
        translation = np.asarray(expected[0], dtype=np.float64)
        assert result.transform.translation.tobytes() == translation.tobytes()
        assert (
            result.accepted_refinement,
            result.coarse_median_residual,
            result.refined_median_residual,
            result.n_static,
        ) == expected[1:]
        purification = purify(source.with_points(coarse.apply(source.points)), build_index(target))
        assert purification.median_distance == median
        assert ALPHA * purification.median_distance == threshold
        np.testing.assert_array_equal(purification.static_mask, static)
        np.testing.assert_array_equal(purification.nn_indices[static], static_nn)
        return result, bounds, sizes

    def test_accepted(self):
        source, target, coarse = _accepted_scene()
        result, bounds, sizes = self._assert_matches(source, target, coarse)
        assert result.accepted_refinement
        # Sample, then bounded purify, band sample and narrowed self-check
        # queries, no fallback.
        assert len(bounds) == 4 and np.isfinite(bounds[1:]).all()
        # The self-check queries only the points its bracket cannot place.
        assert sizes[1] == len(source) and 0 < sizes[3] < len(source)

    def test_self_check_rejected(self):
        result, bounds, _ = self._assert_matches(*_self_check_rejected_scene())
        assert not result.accepted_refinement
        assert result.n_static >= MIN_STATIC_POINTS
        assert len(bounds) == 4 and np.isfinite(bounds[1:]).all()

    def test_too_few_static(self, rng):
        target = rng.uniform(0, 10, size=(400, 3))
        source = PointCloud(target + rng.normal(scale=0.01, size=target.shape))
        result, bounds, _ = self._assert_matches(
            source, PointCloud(target), identity_sim3(), min_static=401
        )
        assert result.n_static < 401
        assert len(bounds) == 2 and np.isfinite(bounds[1])

    def test_purify_falls_back_to_exact_query(self, monkeypatch):
        source, target = _purify_fallback_scene()
        bounds, _ = _record_queries(monkeypatch)
        result = purify(source, build_index(target))
        # Sample, bounded full query, then the exact fallback.
        assert bounds == [np.inf, pytest.approx(0.06), np.inf]
        assert result.median_distance == pytest.approx(1.0)
        assert np.isfinite(result.distances).all()
        self._assert_matches(source, target, identity_sim3())

    def test_self_check_median_on_the_triangle_bound(self):
        source, target = _triangle_bound_scene()
        result, bounds, _ = self._assert_matches(source, target, identity_sim3())
        # Sample and bounded purify query, then the band sample and the
        # narrowed self-check query, whose bound clears the median by the
        # bracket's margin.
        assert len(bounds) == 4 and 1.4 < bounds[3] < 1.4 * (1.0 + 1e-6)
        assert not result.accepted_refinement
        assert result.refined_median_residual == 1.4

    def test_self_check_falls_back_to_the_whole_band(self, monkeypatch):
        monkeypatch.setattr(fine, "_BRACKET_SIGMAS", 0.0)
        _, bounds, sizes = self._assert_matches(*_self_check_rejected_scene())
        # Band sample, narrowed query, then the whole band within the sample's bound.
        assert len(bounds) == 5 and bounds[4] == bounds[2]
        assert sizes[4] > sizes[3]


# Displacement of the outlier rows: far beyond purify's bound, so a bounded
# purify leaves them inf, and far beyond twice any coarse median.
_FAR = np.array([40.0, -30.0, 20.0])
# About 1e6 from the origin, so the clouds straddle 2**20, where the spacing
# of float64 coordinates doubles and a translated point rounds differently.
_OFFSET = 2.0**20 - 5.0


def _bracket_scene(seed, cloud, offset, step):
    """Target, source, coarse transform and candidate translation.

    ``cloud``: ``"random"`` (independent uniform clouds under a random
    Sim(3)), ``"lattice"`` (integer grid target, half-integer source: exact
    ties) or ``"copied"`` (source rows copied from the target: zero
    distances, and copies nudged 1e-3 along one direction).  The last
    quarter of the source rows sits ``_FAR`` from its place.  ``offset``
    moves both clouds away from the origin.  ``step``: ``"zero"`` keeps the
    coarse translation, ``"small"`` moves it a little (the copied cloud's
    nudge back, so the nudged rows return onto the target along their coarse
    distance) and ``"beyond"`` by ``-_FAR``, which carries the outlier rows
    back onto the target and every other row far off it.
    """
    rng = np.random.default_rng(seed)
    n = 200  # 40 exact copies in the copied cloud, 50 outlier rows in each
    if cloud == "lattice":
        base = np.stack(np.meshgrid(*[np.arange(7.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        source = base[rng.integers(0, len(base), n)] + rng.integers(-1, 2, (n, 3)) * 0.5
    elif cloud == "copied":
        base = rng.uniform(0.0, 10.0, (300, 3))
        source = base[rng.integers(0, len(base), n)]
        nudge = rng.normal(0.0, 1.0, 3)
        nudge *= 1e-3 / np.linalg.norm(nudge)
        source[40:] += nudge
    else:
        base = rng.uniform(0.0, 10.0, (300, 3))
        source = rng.uniform(0.0, 10.0, (n, 3))
    source[-n // 4 :] += _FAR
    target = base + offset
    coarse = Sim3Transform(1.0, np.eye(3), np.full(3, offset))
    if cloud == "random":
        move = random_sim3(rng)
        coarse = Sim3Transform(move.scale, move.rotation, move.translation + offset)
        source = coarse.inverse().apply(source + offset)
    if step == "zero":
        candidate = coarse.translation
    elif step == "small" and cloud == "copied":
        candidate = coarse.translation - nudge
    elif step == "small":
        candidate = coarse.translation + (
            rng.integers(-1, 2, 3) * 0.5 if cloud == "lattice" else rng.normal(0.0, 0.2, 3)
        )
    else:
        candidate = coarse.translation - _FAR
    return PointCloud(target), PointCloud(source), coarse, candidate


class TestRefinedMedianBracket:
    """The bracketed self-check median equals the lower median of the
    brute-force distances over the whole target."""

    @pytest.mark.parametrize("step", ["zero", "small", "beyond"])
    @pytest.mark.parametrize("cloud", ["random", "lattice", "copied"])
    @given(seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([0.0, _OFFSET]))
    def test_equals_brute_force_median(self, cloud, step, seed, offset):
        target, source, coarse, candidate = _bracket_scene(seed, cloud, offset, step)
        index = build_index(target)
        purification = purify(source.with_points(coarse.apply(source.points)), index)
        shifted = Sim3Transform(coarse.scale, coarse.rotation, candidate).apply(source.points)
        step_length = float(np.linalg.norm(candidate - coarse.translation))
        brute = np.sqrt(np.sum((shifted[:, None, :] - target.points[None, :, :]) ** 2, axis=2))
        expected = lower_median(brute.min(axis=1))
        assert _refined_median(index, shifted, purification, step_length) == expected

    @pytest.mark.parametrize("cloud", ["random", "lattice", "copied"])
    def test_scenes_reach_every_case(self, cloud):
        """The scenes hold what the property must cover: rows a bounded
        purify left inf, a step beyond twice the coarse median, and for the
        lattice and copied clouds exact ties and zero distances."""
        target, source, coarse, candidate = _bracket_scene(0, cloud, _OFFSET, "beyond")
        index = build_index(target)
        purification = purify(source.with_points(coarse.apply(source.points)), index)
        assert np.isinf(purification.distances).sum() == len(source) // 4
        assert np.linalg.norm(candidate - coarse.translation) > 2 * purification.median_distance
        distances = purification.distances[np.isfinite(purification.distances)]
        if cloud != "random":
            assert (distances == 0.0).sum() > 1
        if cloud == "lattice":
            assert len(np.unique(distances)) < 10


def _loose_bounds_case(seed):
    """Index, shifted cloud, purification and brute-force median of a small
    lattice case whose bracket bounds are valid but loose: at step 0 purify's
    distances are the refined ones, here scaled by 1, 0.5 or 0 (lower bounds),
    and half the frozen neighbors are random target points (upper bounds)."""
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 6, size=(int(rng.integers(2, 8)), 3)).astype(float)
    n = int(rng.integers(3, 60))
    shifted = rng.integers(0, 6, size=(n, 3)) + rng.integers(0, 2, size=(n, 3)) * 0.5
    index = build_index(PointCloud(target))
    exact, nearest = index.query(shifted)
    neighbors = np.where(rng.random(n) < 0.5, nearest, rng.integers(0, len(target), n))
    loose = exact * rng.choice([1.0, 0.5, 0.0], n)
    purification = PurificationResult(loose, neighbors, loose < 1.0, lower_median(loose))
    return index, shifted, purification, lower_median(exact)


class TestRefinedMedianSampledBand:
    """The bracketed median stays exact through the narrowed query and
    through the whole-band fallback that a narrowest bracket forces."""

    @pytest.mark.parametrize("step", ["zero", "small", "beyond"])
    @pytest.mark.parametrize("cloud", ["random", "lattice", "copied"])
    @given(seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([0.0, _OFFSET]))
    def test_narrowest_equals_brute_force_median(self, cloud, step, seed, offset):
        target, source, coarse, candidate = _bracket_scene(seed, cloud, offset, step)
        index = build_index(target)
        purification = purify(source.with_points(coarse.apply(source.points)), index)
        shifted = Sim3Transform(coarse.scale, coarse.rotation, candidate).apply(source.points)
        step_length = float(np.linalg.norm(candidate - coarse.translation))
        brute = np.sqrt(np.sum((shifted[:, None, :] - target.points[None, :, :]) ** 2, axis=2))
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(fine, "_BRACKET_SIGMAS", 0.0)
            median = _refined_median(index, shifted, purification, step_length)
        assert median == lower_median(brute.min(axis=1))

    # The narrowest bracket spans only the two sample values around the
    # expected rank, so the exact counts often reject it and the whole band
    # is queried.
    @pytest.mark.parametrize("sigmas", [3.0, 0.0], ids=["sampled", "narrowest"])
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=205)  # narrowed brackets whose lower end falls below the band's
    @example(seed=314)
    def test_loose_bounds_keep_the_median(self, sigmas, seed):
        index, shifted, purification, expected = _loose_bounds_case(seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(fine, "_BRACKET_SIGMAS", sigmas)
            assert _refined_median(index, shifted, purification, 0.0) == expected
