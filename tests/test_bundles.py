"""Trajectory files, epoch and joint directories, and scene directory round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from cloudchange import SchemaError
from cloudchange.bundles import (
    read_epoch_dir,
    read_ground_truth,
    read_joint_dir,
    read_scene_dir,
    read_trajectory,
    write_scene_dir,
    write_trajectory,
)
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene


@pytest.fixture(scope="module")
def scene():
    return generate_scene(
        SceneSpec(
            seed=404,
            n_static=1200,
            n_frames_per_epoch=6,
            noise_sigma=0.002,
            edge_noise_fraction=0.1,
            change_spec=(ChangeSpec("added", 150),),
        )
    )


class TestTrajectoryFiles:
    def test_round_trip(self, rng, tmp_path, scene):
        path = tmp_path / "traj.json"
        write_trajectory(path, scene.trajectory_t1)
        back = read_trajectory(path)
        assert back.labels() == scene.trajectory_t1.labels()
        np.testing.assert_allclose(
            back.centers(), scene.trajectory_t1.centers(), atol=1e-12
        )

    def test_bad_rotation_rejected(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": "1.0",
                    "poses": [
                        {
                            "epoch_id": 1,
                            "frame_index": 1,
                            "rotation": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
                            "translation": [0, 0, 0],
                        }
                    ],
                }
            )
        )
        with pytest.raises(SchemaError):
            read_trajectory(path)

    @pytest.mark.parametrize("translation", [[float("nan"), 0, 0], [0, 0, float("-inf")]])
    def test_non_finite_translation_rejected(self, tmp_path, translation):
        path = tmp_path / "traj.json"
        # json.dumps spells these NaN and -Infinity, which json.loads reads back.
        path.write_text(
            json.dumps(
                {
                    "format_version": "1.0",
                    "poses": [
                        {
                            "epoch_id": 1,
                            "frame_index": 1,
                            "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                            "translation": translation,
                        }
                    ],
                }
            )
        )
        with pytest.raises(SchemaError, match="pose 0: translation must be finite"):
            read_trajectory(path)


class TestSceneDirectory:
    def test_epoch_dir_round_trip_is_float32_lossless(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        frames = read_epoch_dir(tmp_path / "s" / "e1")
        merged = np.concatenate([f.points for f in frames])
        np.testing.assert_array_equal(
            merged, scene.cloud_t1.points.astype(np.float32).astype(np.float64)
        )

    def test_stray_frame_name_is_schema_error(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        epoch = tmp_path / "s" / "e1"
        (epoch / "frame_abc.ply").write_bytes((epoch / "frame_0001.ply").read_bytes())
        with pytest.raises(SchemaError, match="frame_abc.ply"):
            read_epoch_dir(epoch)

    def test_scene_round_trip_and_idempotent_export(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        back = read_scene_dir(tmp_path / "s")
        assert back.spec.to_dict() == scene.spec.to_dict()
        assert (back.labels_t1 == scene.labels_t1).all()
        assert (back.labels_t2 == scene.labels_t2).all()
        assert back.gt_relative.scale == pytest.approx(scene.gt_relative.scale, rel=1e-12)
        np.testing.assert_allclose(
            back.cloud_t2.points, scene.cloud_t2.points, atol=1e-4
        )
        # Re-exporting the re-read scene reproduces the cloud bytes.
        write_scene_dir(back, tmp_path / "s2")
        a = (tmp_path / "s" / "e1" / "frame_0001.ply").read_bytes()
        b = (tmp_path / "s2" / "e1" / "frame_0001.ply").read_bytes()
        assert a == b

    def test_joint_dir_round_trip(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s", joint_sigma=0.01)
        joint = read_joint_dir(tmp_path / "s" / "joint")
        keys = sorted(joint.clouds)
        assert keys[0] == (1, 1) and keys[-1] == (2, scene.spec.n_frames_per_epoch)
        for (epoch_id, index), cloud in joint.clouds.items():
            assert len(cloud) == len(scene.cloud(epoch_id).frame_subset(index))

    def test_ground_truth_fields(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        gt = read_ground_truth(tmp_path / "s" / "gt.json")
        assert gt["seed"] == scene.spec.seed
        assert gt["labels_t2"].sum() == scene.labels_t2.sum()
        assert gt["gt_relative"].scale == pytest.approx(scene.gt_relative.scale, rel=1e-12)

    def test_oracle_joint_matches_exported_clouds(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        joint = read_joint_dir(tmp_path / "s" / "joint")
        # Zero-perturbation oracle: the exported joint clouds must agree
        # with the in-memory world positions to float32 precision.
        for (epoch_id, index), cloud in joint.clouds.items():
            mask = scene.cloud(epoch_id).source_frame == index
            np.testing.assert_allclose(
                cloud.points, scene.world_points(epoch_id)[mask], atol=1e-3
            )

    def test_missing_gt_file(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        with pytest.raises(SchemaError, match="nope.json"):
            read_ground_truth(tmp_path / "s" / "nope.json")
