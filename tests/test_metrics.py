"""Trajectory error metrics and the ablation harness."""

from __future__ import annotations

import numpy as np
import pytest

from cloudchange import (
    LabelMismatch,
    MetricsReport,
    Sim3Transform,
    TooFewPoses,
    Trajectory,
    ate,
    combine_trajectories,
    rte,
)
from cloudchange.metrics import (
    ROUND_OFF_ATE,
    ablation_sweep,
    evaluate_scene_run,
    stack_epochs,
    transform_error,
)
from cloudchange.pipeline import MODES, PipelineConfig
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene

from conftest import random_sim3


def _track(centers, epoch_id=1):
    return Trajectory(centers, range(1, len(centers) + 1), (epoch_id,) * len(centers))


def _combined(centers1, centers2):
    return stack_epochs(_track(centers1, 1), _track(centers2, 2))


def _arc(n, radius=5.0, phase=0.0):
    theta = phase + np.linspace(0.0, 1.5 * np.pi, n)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), 0.3 * theta], axis=1)


class TestTrajectory:
    def test_frame_indices_must_increase_within_epoch(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Trajectory(np.zeros((2, 3)), (2, 1), (1, 1))

    def test_frame_indices_must_be_non_negative(self):
        with pytest.raises(ValueError, match="frame index must be >= 0"):
            Trajectory(np.zeros((1, 3)), (-1,), (1,))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_center(self, value):
        with pytest.raises(ValueError, match="centers must be finite"):
            Trajectory([[0.0, value, 0.0]], (1,), (1,))

    @pytest.mark.parametrize(
        "centers, frames, epochs",
        [([[0.0, 0.0]], (1,), (1,)), (np.zeros((2, 3)), (1,), (1, 1)), (np.zeros((1, 3)), (1,), ())],
        ids=["short_center", "fewer_frames", "fewer_epochs"],
    )
    def test_lengths_must_agree(self, centers, frames, epochs):
        with pytest.raises(ValueError, match="one 3-vector center"):
            Trajectory(centers, frames, epochs)

    @pytest.mark.parametrize(
        "frames, epochs",
        [((0.9, 1.2), (1, 1)), ((0.0, 1.0), (1, 1)), ((False, True), (1, 1)), ((0, 1), (1.0, 1.0))],
        ids=["fractional_frames", "integral_float_frames", "bool_frames", "float_epochs"],
    )
    def test_labels_take_only_integers(self, frames, epochs):
        with pytest.raises(ValueError, match="must be an integer"):
            Trajectory(np.zeros((2, 3)), frames, epochs)

    def test_ragged_centers_rejected(self):
        with pytest.raises(ValueError, match="centers must be a regular array"):
            Trajectory([[0.0, 0.0, 0.0], [0.0, 1.0]], (1, 2), (1, 1))

    def test_labels_and_centers(self):
        centers = _arc(4)
        traj = _track(centers, 2)
        assert traj.labels() == [(2, 1), (2, 2), (2, 3), (2, 4)]
        np.testing.assert_array_equal(traj.centers, centers)
        # A copy, read-only: the caller's array stays writable and apart.
        assert not traj.centers.flags.writeable
        centers[0] = 9.0
        assert traj.centers[0, 0] != 9.0


class TestAte:
    def test_perfect_prediction_is_zero(self):
        traj = _combined(_arc(8), _arc(8, 4.0, 1.0))
        assert ate(traj, traj) == pytest.approx(0.0, abs=1e-9)

    def test_global_sim3_absorbed(self, rng):
        gt = _combined(_arc(8), _arc(8, 4.0, 1.0))
        g = random_sim3(rng)
        moved_centers = g.apply(gt.centers)
        predicted = _combined(moved_centers[:8], moved_centers[8:])
        assert ate(predicted, gt) == pytest.approx(0.0, abs=1e-9)

    def test_offset_epoch_matches_brute_force_oracle(self):
        # Epoch 1 centers offset by (1, 0, 0), epoch 2 exact; compare with
        # an independent implementation of the same definition.
        c1 = _arc(10)
        c2 = _arc(10, 4.0, 0.7)
        gt = _combined(c1, c2)
        predicted = _combined(c1 + np.array([1.0, 0.0, 0.0]), c2)
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

        expected = brute_force_ate(predicted.centers, gt.centers)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value > 0.1

    def test_label_mismatch(self):
        a = _combined(_arc(5), _arc(5, 4.0))
        b = _combined(_arc(6), _arc(6, 4.0))
        with pytest.raises(LabelMismatch):
            ate(a, b)


class TestRte:
    def test_perfect_prediction_is_zero(self):
        traj = _combined(_arc(6), _arc(6, 4.0))
        assert rte(traj, traj) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_translation_is_invisible(self):
        gt = _combined(_arc(6), _arc(6, 4.0))
        shifted = _combined(
            _arc(6) + np.array([3.0, -1.0, 2.0]),
            _arc(6, 4.0) + np.array([3.0, -1.0, 2.0]),
        )
        assert rte(shifted, gt) == pytest.approx(0.0, abs=1e-9)

    def test_single_corrupted_step_hand_computed(self):
        # Steps along x of length 1; corrupt one predicted center by +0.25x,
        # which perturbs two consecutive steps to 1.25 and 0.75.  With the
        # identity alignment (prediction = truth elsewhere), the RMS over
        # the 2 x 4 same-epoch steps is sqrt(2 * 0.25^2 / 8).
        line = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
        # Use well-spread second-epoch geometry so alignment is determined.
        other = _arc(5, 3.0, 0.4)
        gt = _combined(line, other)
        corrupted = line.copy()
        corrupted[2, 0] += 0.25
        predicted = _combined(corrupted, other)

        got = rte(predicted, gt)
        # The global alignment is near-identity here (tiny perturbation of
        # one of ten well-spread centers), so compare against the hand value
        # loosely but meaningfully.
        expected = np.sqrt((0.25**2 + 0.25**2) / 8.0)
        assert got == pytest.approx(expected, rel=0.05)

    def test_too_few_poses(self):
        traj = _combined([[0, 0, 0]], _arc(2))
        for metric in (ate, rte):
            with pytest.raises(TooFewPoses, match="epoch 1 has fewer than 2 poses"):
                metric(traj, traj)


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
        rel = random_sim3(rng)
        combined = combine_trajectories(_track(c1, 1), _track(c2, 2), rel)
        np.testing.assert_array_equal(combined.centers[:4], rel.apply(c1))
        np.testing.assert_array_equal(combined.centers[4:], c2)
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

    def test_delta_pct_is_undefined_at_a_round_off_baseline(self, sweep_scene):
        # A zero-error joint makes the coarse stage exact up to round-off
        # (ATE near 1e-15); a percentage of that baseline would read near -1e13 %.
        rows = ablation_sweep(sweep_scene, [2, 5], MODES, PipelineConfig())
        for row in rows:
            assert row["ate_coarse"] <= ROUND_OFF_ATE * sweep_scene.extent
            assert row["delta_pct"] is None

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

        mock = {"joint_sigma": 0.01, "epoch_bias": 0.005}
        rows = ablation_sweep(sweep_scene, [2, 5], MODES, PipelineConfig(), **mock)
        for row in rows:
            coarse_only = PipelineConfig(k_keyframes=row["k"], mode="coarse_only")
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

    @pytest.mark.parametrize(
        "values",
        [(np.inf, 0.0, 0.0), (0.0, np.nan, 0.0), (0.0, 0.0, np.inf)],
        ids=["ate", "rte", "transform_error"],
    )
    def test_rejects_non_finite_errors(self, values):
        # JSON cannot hold them, and an overflowed metric measures nothing.
        ate_m, rte_m, scale_error = values
        with pytest.raises(ValueError, match="finite"):
            MetricsReport(ate_m, rte_m, {"scale_ratio_error": scale_error}, {})

    def test_evaluate_scene_run_roundtrip(self):
        from cloudchange import register_scene

        scene = generate_scene(SceneSpec(seed=77, n_static=2500, n_frames_per_epoch=10))
        result = register_scene(scene, PipelineConfig(k_keyframes=4), joint_sigma=0.005)
        report = evaluate_scene_run(scene, result)
        assert report.ate_m >= 0.0
        assert report.transform_error["scale_ratio_error"] < 0.05
        assert report.to_dict()["config"]["k_keyframes"] == 4
