"""Trajectory error metrics and the ablation harness."""

from __future__ import annotations

import numpy as np
import pytest

from cloudchange import (
    LabelMismatch,
    MetricsReport,
    SE3Pose,
    Sim3Transform,
    TooFewPoses,
    Trajectory,
    ate,
    combine_trajectories,
    rte,
)
from cloudchange.metrics import ablation_sweep, evaluate_scene_run, transform_error
from cloudchange.pipeline import MODES, PipelineConfig
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene

from conftest import random_rotation, random_sim3


def _trajectory_from_centers(centers, epoch_id=1, rng=None):
    rng = rng or np.random.default_rng(0)
    poses = []
    for i, c in enumerate(centers, start=1):
        r = random_rotation(rng)
        poses.append(SE3Pose(r, -(r @ np.asarray(c, float)), frame_index=i))
    return Trajectory(tuple(poses), (epoch_id,) * len(poses))


def _combined(centers1, centers2, rng=None):
    t1 = _trajectory_from_centers(centers1, 1, rng)
    t2 = _trajectory_from_centers(centers2, 2, rng)
    return Trajectory(t1.poses + t2.poses, t1.epoch_ids + t2.epoch_ids)


def _arc(n, radius=5.0, phase=0.0):
    theta = phase + np.linspace(0.0, 1.5 * np.pi, n)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), 0.3 * theta], axis=1)


class TestTrajectory:
    def test_frame_indices_must_increase_within_epoch(self, rng):
        r = random_rotation(rng)
        poses = [SE3Pose(r, np.zeros(3), frame_index=2), SE3Pose(r, np.ones(3), frame_index=1)]
        with pytest.raises(ValueError):
            Trajectory(tuple(poses), (1, 1))

    def test_labels_and_centers(self, rng):
        traj = _trajectory_from_centers(_arc(4), 2, rng)
        assert traj.labels() == [(2, 1), (2, 2), (2, 3), (2, 4)]
        assert traj.centers().shape == (4, 3)


class TestAte:
    def test_perfect_prediction_is_zero(self, rng):
        traj = _combined(_arc(8), _arc(8, 4.0, 1.0), rng)
        assert ate(traj, traj) == pytest.approx(0.0, abs=1e-9)

    def test_global_sim3_absorbed(self, rng):
        gt = _combined(_arc(8), _arc(8, 4.0, 1.0), rng)
        g = random_sim3(rng)
        moved_centers = g.apply(gt.centers())
        predicted = _combined(moved_centers[:8], moved_centers[8:], rng)
        assert ate(predicted, gt) == pytest.approx(0.0, abs=1e-9)

    def test_offset_epoch_matches_brute_force_oracle(self, rng):
        # Epoch 1 centers offset by (1, 0, 0), epoch 2 exact; compare with
        # an independent implementation of the same definition.
        c1 = _arc(10)
        c2 = _arc(10, 4.0, 0.7)
        gt = _combined(c1, c2, rng)
        predicted = _combined(c1 + np.array([1.0, 0.0, 0.0]), c2, rng)
        value = ate(predicted, gt)

        def brute_force_ate(pred_centers, gt_centers):
            # Standalone similarity alignment + RMSE, written independently.
            mu_p = pred_centers.mean(0)
            mu_g = gt_centers.mean(0)
            pc = pred_centers - mu_p
            gc = gt_centers - mu_g
            cov = gc.T @ pc / len(pc)
            u, d, vt = np.linalg.svd(cov)
            s = np.eye(3)
            if np.linalg.det(u) * np.linalg.det(vt) < 0:
                s[2, 2] = -1.0
            rot = u @ s @ vt
            var = (pc**2).sum() / len(pc)
            scale = np.trace(np.diag(d) @ s) / var
            t = mu_g - scale * rot @ mu_p
            aligned = scale * pred_centers @ rot.T + t
            return float(np.sqrt(np.mean(np.sum((aligned - gt_centers) ** 2, 1))))

        expected = brute_force_ate(predicted.centers(), gt.centers())
        assert value == pytest.approx(expected, abs=1e-9)
        assert value > 0.1

    def test_label_mismatch(self, rng):
        a = _combined(_arc(5), _arc(5, 4.0), rng)
        b = _combined(_arc(6), _arc(6, 4.0), rng)
        with pytest.raises(LabelMismatch):
            ate(a, b)


class TestRte:
    def test_perfect_prediction_is_zero(self, rng):
        traj = _combined(_arc(6), _arc(6, 4.0), rng)
        assert rte(traj, traj) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_translation_is_invisible(self, rng):
        gt = _combined(_arc(6), _arc(6, 4.0), rng)
        shifted = _combined(
            _arc(6) + np.array([3.0, -1.0, 2.0]),
            _arc(6, 4.0) + np.array([3.0, -1.0, 2.0]),
            rng,
        )
        assert rte(shifted, gt) == pytest.approx(0.0, abs=1e-9)

    def test_single_corrupted_step_hand_computed(self, rng):
        # Steps along x of length 1; corrupt one predicted center by +0.25x,
        # which perturbs two consecutive steps to 1.25 and 0.75.  With the
        # identity alignment (prediction = truth elsewhere), the RMS over
        # the 2 x 4 same-epoch steps is sqrt(2 * 0.25^2 / 8).
        line = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
        # Use well-spread second-epoch geometry so alignment is determined.
        other = _arc(5, 3.0, 0.4)
        gt = _combined(line, other, rng)
        corrupted = line.copy()
        corrupted[2, 0] += 0.25
        predicted = _combined(corrupted, other, rng)

        got = rte(predicted, gt)
        # The global alignment is near-identity here (tiny perturbation of
        # one of ten well-spread centers), so compare against the hand value
        # loosely but meaningfully.
        expected = np.sqrt((0.25**2 + 0.25**2) / 8.0)
        assert got == pytest.approx(expected, rel=0.05)

    def test_too_few_poses(self, rng):
        one = _trajectory_from_centers([[0, 0, 0]], 1, rng)
        two = _trajectory_from_centers(_arc(2), 2, rng)
        traj = Trajectory(one.poses + two.poses, one.epoch_ids + two.epoch_ids)
        with pytest.raises(TooFewPoses):
            rte(traj, traj)


class TestTransformError:
    def test_zero_for_identical(self, rng):
        t = random_sim3(rng)
        err = transform_error(t, t)
        assert err["scale_ratio_error"] == pytest.approx(0.0, abs=1e-12)
        assert err["rotation_deg"] == pytest.approx(0.0, abs=1e-6)
        assert err["translation_norm"] == pytest.approx(0.0, abs=1e-12)

    def test_known_scale_error(self, rng):
        t = random_sim3(rng)
        worse = Sim3Transform(t.scale * 1.02, t.rotation, t.translation)
        assert transform_error(worse, t)["scale_ratio_error"] == pytest.approx(0.02)


class TestCombineTrajectories:
    def test_epoch1_centers_mapped(self, rng):
        c1 = _arc(4)
        c2 = _arc(4, 4.0)
        t1 = _trajectory_from_centers(c1, 1, rng)
        t2 = _trajectory_from_centers(c2, 2, rng)
        rel = random_sim3(rng)
        combined = combine_trajectories(t1, t2, rel)
        np.testing.assert_allclose(combined.centers()[:4], rel.apply(c1), atol=1e-9)
        np.testing.assert_allclose(combined.centers()[4:], c2, atol=1e-12)
        assert combined.epoch_ids == (1, 1, 1, 1, 2, 2, 2, 2)


@pytest.fixture(scope="module")
def sweep_scene():
    return generate_scene(
        SceneSpec(
            seed=505,
            n_static=4000,
            n_frames_per_epoch=12,
            noise_sigma=0.002,
            change_spec=(ChangeSpec("moved", 400, (1.0, 0.6, 0.2)),),
        )
    )


class TestAblationSweep:

    def test_full_mode_never_degrades(self, sweep_scene):
        rows = ablation_sweep(sweep_scene, [2, 3, 5], MODES, PipelineConfig(), joint_sigma=0.01)
        for row in rows:
            assert row["delta_pct"] is not None
            assert row["delta_pct"] >= 0.0
            assert row["ate_full"] <= row["ate_coarse"] + 1e-15

    def test_coarse_only_never_invokes_fine_stage(self, sweep_scene, monkeypatch):
        import cloudchange.pipeline as pipeline_module

        calls = {"n": 0}
        original = pipeline_module.fine_stage

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "fine_stage", counting)
        ablation_sweep(sweep_scene, [2, 5], ("coarse_only",), PipelineConfig(), joint_sigma=0.01)
        assert calls["n"] == 0
        ablation_sweep(sweep_scene, [2], ("full",), PipelineConfig(), joint_sigma=0.01)
        assert calls["n"] == 1

    def test_rows_carry_requested_budgets(self, sweep_scene):
        rows = ablation_sweep(sweep_scene, [2, 5], ("coarse_only",), PipelineConfig(), joint_sigma=0.01)
        assert [row["k"] for row in rows] == [2, 5]
        assert all(row["ate_full"] is None for row in rows)

    def test_both_modes_register_each_budget_once(self, sweep_scene, monkeypatch):
        import cloudchange.pipeline as pipeline_module

        calls = {"register_scene": 0, "fine_stage": 0}
        for name in calls:
            original = getattr(pipeline_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline_module, name, counting)
        rows = ablation_sweep(sweep_scene, [2, 3, 5], MODES, PipelineConfig(), joint_sigma=0.01)
        assert calls == {"register_scene": 3, "fine_stage": 3}
        assert all(row["ate_coarse"] is not None and row["ate_full"] is not None for row in rows)

    def test_coarse_column_equals_a_coarse_only_run(self, sweep_scene):
        from cloudchange import register_scene

        config = PipelineConfig(seed=3)
        mock = {"joint_sigma": 0.01, "epoch_bias": 0.005}
        rows = ablation_sweep(sweep_scene, [2, 5], MODES, config, **mock)
        for row in rows:
            coarse_only = config.replace(k_keyframes=row["k"], mode="coarse_only")
            expected = evaluate_scene_run(sweep_scene, register_scene(sweep_scene, coarse_only, **mock))
            assert row["ate_coarse"] == expected.ate_m

    @pytest.mark.parametrize("modes", [(), ("fast",)], ids=["empty", "unknown"])
    def test_bad_modes_raise_before_registering(self, sweep_scene, monkeypatch, modes):
        import cloudchange.pipeline as pipeline_module

        def fail(*args, **kwargs):
            raise AssertionError("register_scene called")

        monkeypatch.setattr(pipeline_module, "register_scene", fail)
        with pytest.raises(ValueError, match="modes"):
            ablation_sweep(sweep_scene, [2], modes, PipelineConfig())


class TestMetricsReport:
    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError):
            MetricsReport(-1.0, 0.0, {"scale_ratio_error": 0.0}, {})

    def test_evaluate_scene_run_roundtrip(self):
        from cloudchange import register_scene

        scene = generate_scene(SceneSpec(seed=77, n_static=2500, n_frames_per_epoch=10))
        result = register_scene(scene, PipelineConfig(k_keyframes=4), joint_sigma=0.005)
        report = evaluate_scene_run(scene, result)
        assert report.ate_m >= 0.0
        assert report.transform_error["scale_ratio_error"] < 0.05
        assert report.to_dict()["config"]["k_keyframes"] == 4
