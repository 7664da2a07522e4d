"""End-to-end registration orchestration and run reports."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from cloudchange import (
    MisalignedInputs,
    PipelineConfig,
    PointCloud,
    RunReport,
    Sim3Transform,
    register_epochs,
    register_scene,
)
from cloudchange.keyframes import fps_temporal
from cloudchange.metrics import ablation_sweep, evaluate_scene_run
from cloudchange.pipeline import detect_changes
from cloudchange.synthetic import (
    ChangeSpec,
    SceneSpec,
    all_frames_keyframes,
    generate_scene,
    mock_joint_inference,
)


@pytest.fixture(scope="module")
def scene():
    return generate_scene(
        SceneSpec(
            seed=606,
            n_static=5000,
            n_frames_per_epoch=12,
            noise_sigma=0.002,
            edge_noise_fraction=0.15,
            change_spec=(
                ChangeSpec("added", 300),
                ChangeSpec("moved", 300, (1.2, 0.5, 0.3)),
            ),
        )
    )


class TestPipelineConfig:
    def test_defaults_echo(self):
        echo = PipelineConfig().to_dict()
        assert echo["k_keyframes"] == 5
        assert echo["correspondence_cap"] == 5000
        assert echo["alpha"] == 3.0
        assert echo["grid_resolution"] == 200
        assert echo["mode"] == "full"
        assert echo["rng"] == "numpy PCG64"

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(k_keyframes=0)
        with pytest.raises(ValueError, match="seed"):
            PipelineConfig(seed=-1)
        with pytest.raises(ValueError, match="grid_resolution"):
            PipelineConfig(grid_resolution=3_000_000)
        with pytest.raises(ValueError):
            PipelineConfig(mode="fast")
        with pytest.raises(ValueError):
            PipelineConfig(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            PipelineConfig(alpha=float("inf"))
        with pytest.raises(ValueError, match="correspondence_cap"):
            PipelineConfig(correspondence_cap=2)
        assert PipelineConfig(correspondence_cap=3).correspondence_cap == 3

    @pytest.mark.parametrize("field", ["k_keyframes", "correspondence_cap", "grid_resolution", "seed"])
    @pytest.mark.parametrize("value", [50.5, 50.0, True], ids=["fraction", "integral_float", "bool"])
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PipelineConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        config = PipelineConfig(k_keyframes=np.int64(4), seed=np.int32(2))
        assert config.to_dict()["k_keyframes"] == 4 and type(config.seed) is int


class TestRegisterScene:
    def test_recovers_ground_truth(self, scene):
        result = register_scene(scene, PipelineConfig(seed=1), joint_sigma=0.005)
        ratio = result.final_transform.scale / scene.gt_relative.scale
        assert abs(ratio - 1.0) < 0.01
        assert result.final_transform is result.fine.transform
        assert result.timings["registration_s"] > 0.0

    def test_coarse_only_mode_has_no_fine_block(self, scene):
        result = register_scene(
            scene, PipelineConfig(mode="coarse_only", seed=1), joint_sigma=0.005
        )
        assert result.fine is None
        assert result.final_transform is result.coarse_relative

    def test_full_mode_reports_cloud_reduction(self, scene):
        result = register_scene(scene, PipelineConfig(seed=1), joint_sigma=0.005)
        stats = result.cloud_stats
        assert stats["t1_filtered"] <= stats["t1_total"]
        assert stats["t1_downsampled"] <= stats["t1_filtered"]
        assert stats["t2_downsampled"] <= stats["t2_filtered"] <= stats["t2_total"]

    def test_final_transform_locks_scale_rotation(self, scene):
        result = register_scene(scene, PipelineConfig(seed=1), joint_sigma=0.005)
        assert result.final_transform.scale == result.coarse_relative.scale
        assert (result.final_transform.rotation == result.coarse_relative.rotation).all()

    def test_deterministic_under_seed(self, scene):
        a = register_scene(scene, PipelineConfig(seed=9), joint_sigma=0.005)
        b = register_scene(scene, PipelineConfig(seed=9), joint_sigma=0.005)
        assert (a.final_transform.translation == b.final_transform.translation).all()
        assert a.final_transform.scale == b.final_transform.scale


class TestRegistrationChangeParadox:
    """Many moved objects: the refinement helps until the changed share nears
    the median's 50 % breakdown point, and then the self-check rejects it.

    20k static points plus 3, 8 or 16 moved boxes of 2,000 points each
    change about 23 %, 44 % or 62 % of the points; the noise, edge and joint
    error settings are those of the benchmark scenes.
    """

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n_objects, accepted", [(3, True), (8, True), (16, False)])
    def test_never_degrades_and_breaks_down_late(self, n_objects, accepted, seed):
        scene = generate_scene(
            SceneSpec(
                seed=seed,
                n_static=20_000,
                n_frames_per_epoch=30,
                change_spec=tuple(
                    ChangeSpec("moved", 2000, (1.0, 0.8, 0.3)) for _ in range(n_objects)
                ),
                noise_sigma=0.002,
                edge_noise_fraction=0.15,
                edge_noise_elongation=0.3,
            )
        )
        result = register_scene(
            scene, PipelineConfig(), joint_sigma=0.005, epoch_bias=0.005, frame_drift=0.005
        )
        fine, coarse, final = result.fine, result.coarse_relative, result.final_transform
        assert final.scale == coarse.scale and (final.rotation == coarse.rotation).all()
        if fine.accepted_refinement:
            assert fine.refined_median_residual < fine.coarse_median_residual
            assert (final.translation == fine.transform.translation).all()
        else:
            assert (final.translation == coarse.translation).all()

        assert fine.accepted_refinement == accepted
        full_ate = evaluate_scene_run(scene, result).ate_m
        coarse_ate = evaluate_scene_run(scene, replace(result, final_transform=coarse)).ate_m
        if accepted:
            assert full_ate < coarse_ate
        else:
            assert full_ate == coarse_ate


class TestRegisterEpochs:
    def test_misaligned_joint_cloud_rejected(self, scene):
        joint = mock_joint_inference(scene, all_frames_keyframes(scene))
        key = (1, 1)
        cloud = joint.clouds[key]
        joint.clouds[key] = PointCloud(cloud.points[:-1], cloud.confidence[:-1])
        with pytest.raises(MisalignedInputs):
            register_epochs(
                scene.epoch_frames(1), scene.epoch_frames(2), joint, PipelineConfig()
            )

    def test_per_frame_mismatch_with_equal_totals_rejected(self, scene):
        joint = mock_joint_inference(scene, all_frames_keyframes(scene))
        keyframes = fps_temporal(scene.spec.n_frames_per_epoch, PipelineConfig().k_keyframes)
        other = (1, keyframes.indices[1])
        first, second = joint.clouds[(1, 1)], joint.clouds[other]
        # Move one point from frame 1 to another keyframe: the keyframe total
        # stays the same, but neither frame is pixel-aligned any more.
        joint.clouds[(1, 1)] = first.select(np.arange(len(first) - 1))
        joint.clouds[other] = PointCloud.concatenate([second, first.select([len(first) - 1])])
        with pytest.raises(MisalignedInputs, match="frame 1:"):
            register_epochs(
                scene.epoch_frames(1), scene.epoch_frames(2), joint, PipelineConfig()
            )

    def test_missing_joint_frame_rejected(self, scene):
        joint = mock_joint_inference(scene, all_frames_keyframes(scene))
        del joint.clouds[(2, 1)]
        with pytest.raises(MisalignedInputs):
            register_epochs(
                scene.epoch_frames(1), scene.epoch_frames(2), joint, PipelineConfig()
            )


def _small_spec() -> SceneSpec:
    return SceneSpec(
        seed=607,
        n_static=3000,
        n_frames_per_epoch=10,
        noise_sigma=0.002,
        edge_noise_fraction=0.15,
        change_spec=(ChangeSpec("moved", 200, (1.2, 0.5, 0.3)),),
    )


_MOCK = {"joint_sigma": 0.005, "epoch_bias": 0.005, "frame_drift": 0.005}


def _report_bytes(scene, config, **mock) -> str:
    result = register_scene(scene, config, **mock)
    return RunReport.from_registration(result).to_json(include_timing=False)


class TestPreparedScene:
    """register_scene builds the mock joint and the fine stage's input clouds
    once per scene and reuses them without changing any result."""

    def test_sweep_then_register_prepares_once(self, monkeypatch):
        import cloudchange.pipeline as pipeline_module
        import cloudchange.synthetic as synthetic_module

        calls = {"mock_joint_inference": 0, "voxel_downsample_indices": 0}
        for module, name in (
            (synthetic_module, "mock_joint_inference"),
            (pipeline_module, "voxel_downsample_indices"),
        ):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        scene = generate_scene(_small_spec())
        config = PipelineConfig()
        ablation_sweep(scene, [2, 3, 5], ("coarse_only", "full"), config, **_MOCK)
        register_scene(scene, config, **_MOCK)
        # One mock joint, and one voxel pass per epoch for one fine target.
        assert calls == {"mock_joint_inference": 1, "voxel_downsample_indices": 2}

    def test_reused_preparation_gives_the_fresh_scene_report(self):
        used = generate_scene(_small_spec())
        config = PipelineConfig(seed=5)
        ablation_sweep(used, [2, 3], ("coarse_only", "full"), config, **_MOCK)
        fresh = generate_scene(_small_spec())
        assert _report_bytes(used, config, **_MOCK) == _report_bytes(fresh, config, **_MOCK)

    @pytest.mark.parametrize(
        "config_updates, mock_updates",
        [
            ({"grid_resolution": 40}, {}),
            ({}, {"joint_sigma": 0.01}),
            ({}, {"warp_amplitude": 0.002}),
            ({"mode": "coarse_only"}, {"epoch_bias": 0.0}),
        ],
        ids=["grid_resolution", "joint_sigma", "warp_amplitude", "coarse_epoch_bias"],
    )
    def test_changed_settings_are_not_served_stale(self, config_updates, mock_updates):
        used = generate_scene(_small_spec())
        config = PipelineConfig()
        before = _report_bytes(used, config, **_MOCK)
        changed_config = config.replace(**config_updates)
        changed_mock = {**_MOCK, **mock_updates}
        after = _report_bytes(used, changed_config, **changed_mock)
        fresh = generate_scene(_small_spec())
        assert after == _report_bytes(fresh, changed_config, **changed_mock)
        assert after != before


class TestRunReport:
    def test_round_trip_through_json(self, scene, tmp_path):
        from cloudchange.pipeline import RunReport

        result = register_scene(scene, PipelineConfig(seed=2), joint_sigma=0.005)
        report = RunReport.from_registration(result, inputs={"t1": "a", "t2": "b"})
        path = tmp_path / "report.json"
        report.write(path)
        back = RunReport.read(path)
        assert back.to_json() == report.to_json()
        final = back.final_sim3()
        assert final.scale == result.final_transform.scale
        np.testing.assert_array_equal(final.translation, result.final_transform.translation)

    def test_byte_identical_excluding_timing(self, scene, tmp_path):
        result_a = register_scene(scene, PipelineConfig(seed=3), joint_sigma=0.005)
        result_b = register_scene(scene, PipelineConfig(seed=3), joint_sigma=0.005)
        report_a = RunReport.from_registration(result_a)
        report_b = RunReport.from_registration(result_b)
        assert report_a.to_json(include_timing=False) == report_b.to_json(include_timing=False)

    def test_unknown_major_version_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"format_version": "3.1", "config": {}}))
        from cloudchange import SchemaError

        with pytest.raises(SchemaError):
            RunReport.read(path)

    def test_transform_dict_round_trip(self, scene):
        result = register_scene(scene, PipelineConfig(seed=4), joint_sigma=0.005)
        report = RunReport.from_registration(result)
        t = Sim3Transform.from_dict(report.final_transform)
        assert t.scale == result.final_transform.scale
        np.testing.assert_array_equal(t.rotation, result.final_transform.rotation)


class TestDetectChanges:
    def test_stats_shape(self, scene):
        from cloudchange import apply_transform

        aligned = apply_transform(scene.gt_relative, scene.cloud_t1)
        change_map, stats = detect_changes(aligned, scene.cloud_t2, tau_ratio=0.01)
        assert stats["n_t1_points"] == len(scene.cloud_t1)
        assert stats["n_t2_points"] == len(scene.cloud_t2)
        assert stats["tau"] == pytest.approx(0.01 * change_map.scene_extent)
        assert 0.0 <= stats["changed_fraction"] <= 1.0
