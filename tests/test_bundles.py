"""Depth bundles, trajectory files, and scene directory round trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from cloudchange import CameraFrame, SchemaError, SE3Pose, backproject
from cloudchange.bundles import (
    oracle_joint_from_files,
    read_depth_bundle,
    read_depth_grid,
    read_epoch_dir,
    read_ground_truth,
    read_joint_dir,
    read_scene_dir,
    read_trajectory,
    write_depth_bundle,
    write_depth_grid,
    write_scene_dir,
    write_trajectory,
)
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene

from conftest import random_rotation


def _sample_frames(rng, n=3, h=12, w=16):
    frames = []
    for i in range(1, n + 1):
        r = random_rotation(rng)
        depth = rng.uniform(1.0, 5.0, size=(h, w)).astype(np.float32).astype(float)
        depth[rng.uniform(size=(h, w)) < 0.2] = 0.0
        conf = rng.uniform(0.0, 1.0, size=(h, w)).astype(np.float32).astype(float)
        frames.append(
            CameraFrame(
                intrinsics=np.array([[80.0, 0.0, w / 2], [0.0, 80.0, h / 2], [0.0, 0.0, 1.0]]),
                pose=SE3Pose(r, rng.normal(size=3), frame_index=i),
                depth=depth,
                confidence=conf,
            )
        )
    return frames


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


class TestDepthGrids:
    def test_round_trip(self, rng, tmp_path):
        grid = rng.uniform(0, 9, size=(7, 5)).astype(np.float32).astype(float)
        path = tmp_path / "grid.bin"
        write_depth_grid(path, grid)
        np.testing.assert_array_equal(read_depth_grid(path), grid)

    def test_size_mismatch_rejected(self, rng, tmp_path):
        path = tmp_path / "grid.bin"
        write_depth_grid(path, rng.uniform(0, 1, size=(4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(SchemaError):
            read_depth_grid(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "grid.bin"
        path.write_bytes(b"not json\n\x00\x00\x00\x00")
        with pytest.raises(SchemaError):
            read_depth_grid(path)

    def test_unknown_major_version_rejected(self, rng, tmp_path):
        path = tmp_path / "grid.bin"
        write_depth_grid(path, rng.uniform(0, 1, size=(2, 2)))
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        header = json.loads(raw[:newline])
        header["format_version"] = "9.0"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + raw[newline + 1 :])
        with pytest.raises(SchemaError):
            read_depth_grid(path)


class TestDepthBundles:
    def test_round_trip_preserves_frames(self, rng, tmp_path):
        frames = _sample_frames(rng)
        write_depth_bundle(tmp_path / "bundle", frames)
        back = read_depth_bundle(tmp_path / "bundle")
        assert len(back) == len(frames)
        for a, b in zip(frames, back):
            np.testing.assert_array_equal(a.depth, b.depth)
            np.testing.assert_array_equal(a.confidence, b.confidence)
            np.testing.assert_allclose(a.pose.rotation, b.pose.rotation, atol=1e-15)
            np.testing.assert_allclose(a.intrinsics, b.intrinsics, atol=1e-15)

    def test_backprojection_survives_round_trip(self, rng, tmp_path):
        frames = _sample_frames(rng, n=1)
        write_depth_bundle(tmp_path / "bundle", frames)
        back = read_depth_bundle(tmp_path / "bundle")
        a = backproject(frames[0])
        b = backproject(back[0])
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)

    def test_missing_confidence_grid(self, rng, tmp_path):
        frames = _sample_frames(rng, n=1)
        write_depth_bundle(tmp_path / "bundle", frames)
        (tmp_path / "bundle" / "frame_0001_conf.bin").unlink()
        with pytest.raises(SchemaError, match="confidence"):
            read_depth_bundle(tmp_path / "bundle")

    def test_grid_dimension_mismatch(self, rng, tmp_path):
        frames = _sample_frames(rng, n=1)
        write_depth_bundle(tmp_path / "bundle", frames)
        write_depth_grid(
            tmp_path / "bundle" / "frame_0001_conf.bin", rng.uniform(0, 1, size=(3, 3))
        )
        with pytest.raises(SchemaError, match="dimensions differ"):
            read_depth_bundle(tmp_path / "bundle")

    def test_missing_field_names_file(self, rng, tmp_path):
        frames = _sample_frames(rng, n=1)
        write_depth_bundle(tmp_path / "bundle", frames)
        meta_path = tmp_path / "bundle" / "frame_0001.json"
        meta = json.loads(meta_path.read_text())
        del meta["intrinsics"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SchemaError, match="intrinsics"):
            read_depth_bundle(tmp_path / "bundle")

    def test_empty_directory(self, tmp_path):
        (tmp_path / "bundle").mkdir()
        with pytest.raises(SchemaError):
            read_depth_bundle(tmp_path / "bundle")


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
        joint = oracle_joint_from_files(
            (tmp_path / "s" / "e1", tmp_path / "s" / "e2"), tmp_path / "s" / "gt.json"
        )
        # Zero-perturbation oracle: file-based reconstruction must agree
        # with the in-memory world positions to float32 precision.
        for (epoch_id, index), cloud in joint.clouds.items():
            mask = scene.cloud(epoch_id).source_frame == index
            np.testing.assert_allclose(
                cloud.points, scene.world_points(epoch_id)[mask], atol=1e-3
            )

    def test_missing_gt_file(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        with pytest.raises(SchemaError):
            oracle_joint_from_files(
                (tmp_path / "s" / "e1", tmp_path / "s" / "e2"), tmp_path / "nope.json"
            )
