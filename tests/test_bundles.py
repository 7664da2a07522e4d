"""Trajectory files, epoch and joint directories, and scene directory round trips."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cloudchange import CloudChangeError, PointCloud, SchemaError, compose_relative
from cloudchange.bundles import (
    _GT_TYPES,
    load_json,
    read_epoch_dir,
    read_ground_truth,
    read_joint_dir,
    read_trajectory,
    write_epoch_dir,
    write_joint_dir,
    write_scene_dir,
    write_trajectory,
)
from cloudchange.cli import _ablate_scene, _scene_spec, main
from cloudchange.coarse import JointReconstruction
from cloudchange.metrics import Trajectory
from cloudchange.pipeline import PipelineConfig, RunReport
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene

from conftest import random_sim3


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


def _trajectory_file(path, entry):
    """A one-camera trajectory file whose only entry is ``entry``."""
    # json.dumps spells NaN and -Infinity, which are not JSON numbers.
    path.write_text(json.dumps({"format_version": "1.0", "poses": [entry]}))
    return path


@st.composite
def trajectories(draw):
    """A trajectory of 1-12 cameras with finite centers."""
    n = draw(st.integers(1, 12))
    centers = draw(
        arrays(np.float64, (n, 3), elements=st.floats(-1e300, 1e300, allow_subnormal=True))
    )
    frames = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True)))
    return Trajectory(centers, frames)


def _files(directory) -> list:
    """Paths of the files under ``directory``, relative to it, sorted."""
    return sorted(path.relative_to(directory) for path in directory.rglob("*") if path.is_file())


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path, scene):
        path = tmp_path / "traj.json"
        write_trajectory(path, scene.trajectory_t1)
        back = read_trajectory(path)
        assert back.frame_indices == scene.trajectory_t1.frame_indices
        np.testing.assert_array_equal(back.centers, scene.trajectory_t1.centers)
        # The path gives the epoch; a pose holds only its frame and center.
        poses = json.loads(path.read_text())["poses"]
        assert [sorted(pose) for pose in poses] == [["center", "frame_index"]] * len(poses)

    @given(trajectory=trajectories(), seed=st.integers(0, 2**32 - 1))
    def test_file_and_transform_keep_center_bits(self, tmp_path_factory, trajectory, seed):
        path = tmp_path_factory.mktemp("traj") / "traj.json"
        write_trajectory(path, trajectory)
        back = read_trajectory(path)
        assert back.frame_indices == trajectory.frame_indices
        assert back.centers.tobytes() == trajectory.centers.tobytes()
        transform = random_sim3(np.random.default_rng(seed))
        moved = trajectory.transformed(transform)
        assert moved.centers.tobytes() == transform.apply(trajectory.centers).tobytes()
        assert moved.frame_indices == trajectory.frame_indices

    def test_pose_form_rejected(self, tmp_path):
        old = {"frame_index": 1, "rotation": np.eye(3).tolist(), "translation": [0, 0, 0]}
        path = _trajectory_file(tmp_path / "traj.json", old)
        with pytest.raises(SchemaError, match=f"{path}: pose 0: missing field 'center'"):
            read_trajectory(path)

    @pytest.mark.parametrize("center", [[float("nan"), 0, 0], [0, 0, float("-inf")]])
    def test_non_finite_center_rejected(self, tmp_path, center):
        entry = {"frame_index": 1, "center": center}
        path = _trajectory_file(tmp_path / "traj.json", entry)
        with pytest.raises(SchemaError, match=f"{path}: invalid JSON .*is not a finite number"):
            read_trajectory(path)


class TestLoadJson:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_number_is_schema_error(self, tmp_path, literal):
        path = tmp_path / "data.json"
        path.write_text(f'{{"format_version": "1.0", "deep": [1.0, {{"x": {literal}}}]}}')
        with pytest.raises(SchemaError, match=f"{path}: invalid JSON \\({literal} is not a finite"):
            load_json(path)

    def test_extreme_finite_numbers_read(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("[1.7976931348623157e308, -5e-324, 1e-400, 123456789012345678901234567890]")
        assert load_json(path) == [1.7976931348623157e308, -5e-324, 0.0,
                                   123456789012345678901234567890]


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
        # scene.json and the transforms of gt.json regenerate the scene, and
        # re-exporting it with the joint_sigma scene.json records reproduces
        # every file, the joint clouds included.
        write_scene_dir(scene, tmp_path / "s", joint_sigma=0.01)
        spec, joint_sigma = _scene_spec(tmp_path / "s" / "scene.json")
        assert joint_sigma == 0.01
        gt = read_ground_truth(tmp_path / "s" / "gt.json")
        back = generate_scene(replace(spec, epoch_transforms=gt["epoch_transforms"]))
        write_scene_dir(back, tmp_path / "s2", joint_sigma=joint_sigma)
        files = [_files(tmp_path / name) for name in ("s", "s2")]
        assert files[0] == files[1] and len(files[0]) == 4 * scene.spec.n_frames_per_epoch + 6
        for name in files[0]:
            assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes(), name

    @pytest.mark.parametrize(
        "stray", ["e1/frame_0007.ply", "e2/frame_1.ply", "joint/e2_frame_0007.ply"]
    )
    def test_export_over_another_scenes_frames_is_schema_error(self, tmp_path, scene, stray):
        # The readers would mix a frame file this export does not write into
        # the scene, so the export refuses it before it writes anything.
        write_scene_dir(scene, tmp_path / "s")
        (tmp_path / "s" / stray).write_bytes((tmp_path / "s" / "e1" / "frame_0001.ply").read_bytes())
        before = {name: (tmp_path / "s" / name).read_bytes() for name in _files(tmp_path / "s")}
        with pytest.raises(SchemaError, match=stray):
            write_scene_dir(scene, tmp_path / "s", joint_sigma=0.01)
        assert {name: (tmp_path / "s" / name).read_bytes() for name in before} == before
        assert _files(tmp_path / "s") == sorted(before)

    def test_joint_dir_round_trip(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s", joint_sigma=0.01)
        joint = read_joint_dir(tmp_path / "s" / "joint")
        keys = sorted(joint.clouds)
        assert keys[0] == (1, 1) and keys[-1] == (2, scene.spec.n_frames_per_epoch)
        for (epoch_id, index), cloud in joint.clouds.items():
            assert len(cloud) == len(scene.epoch_frames(epoch_id)[index - 1])

    def test_ground_truth_fields(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        gt = read_ground_truth(tmp_path / "s" / "gt.json")
        assert (gt["seed"], gt["n_frames"], gt["extent"]) == (
            scene.spec.seed, scene.spec.n_frames_per_epoch, scene.extent
        )
        # Only what eval and ablate read is written: no per-point fields in
        # gt.json, no file-level epoch in a trajectory file.
        raw = json.loads((tmp_path / "s" / "gt.json").read_text())
        assert set(raw) == {"format_version", *_GT_TYPES}
        for name in ("e1/trajectory.json", "gt_trajectories/e2.json"):
            assert set(json.loads((tmp_path / "s" / name).read_text())) == {"format_version", "poses"}
        # JSON floats round-trip exactly, so the derived transform is bit-identical.
        assert compose_relative(*gt["epoch_transforms"]).to_dict() == scene.gt_relative.to_dict()

    def test_oracle_joint_matches_exported_clouds(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        joint = read_joint_dir(tmp_path / "s" / "joint")
        # Zero-perturbation oracle: the exported joint clouds must agree
        # with the in-memory world positions to float32 precision.
        for (epoch_id, index), cloud in joint.clouds.items():
            bounds = scene.frame_bounds(epoch_id)
            rows = slice(bounds[index - 1], bounds[index])
            np.testing.assert_allclose(
                cloud.points, scene.world_points(epoch_id)[rows], atol=1e-3
            )

    def test_empty_frames_round_trip(self, tmp_path):
        scene = generate_scene(SceneSpec(seed=0, n_static=40, n_frames_per_epoch=30))
        assert int((np.diff(scene.frame_bounds(1)) == 0).sum()) == 8
        write_scene_dir(scene, tmp_path / "s")
        joint = read_joint_dir(tmp_path / "s" / "joint")
        for epoch_id, name in ((1, "e1"), (2, "e2")):
            frames = read_epoch_dir(tmp_path / "s" / name)
            on_disk = [len(f) for f in frames]
            assert [len(f) for f in scene.epoch_frames(epoch_id)] == on_disk
            assert [len(joint.clouds[(epoch_id, i)]) for i in range(1, 31)] == on_disk
            merged = PointCloud.concatenate(frames)
            cloud = scene.cloud(epoch_id)
            assert merged.points.tobytes() == (
                cloud.points.astype(np.float32).astype(np.float64).tobytes()
            )
            assert merged.confidence.tobytes() == (
                cloud.confidence.astype(np.float32).astype(np.float64).tobytes()
            )

    def test_frame_count_differs_from_spec(self, tmp_path, scene, capsys):
        # ablate regenerates the scene from scene.json, so a gt.json whose
        # frame count disagrees with it is rejected, naming gt.json.
        write_scene_dir(scene, tmp_path / "s")
        gt_path = tmp_path / "s" / "gt.json"
        gt = json.loads(gt_path.read_text())
        gt["n_frames"] += 1
        gt_path.write_text(json.dumps(gt))
        out = tmp_path / "t.csv"
        assert main(["ablate", "--scene", str(tmp_path / "s"), "--k-list", "2", "--out", str(out)]) == 2
        last = scene.spec.n_frames_per_epoch
        assert f"{gt_path}: n_frames is {last + 1}, scene.json gives {last}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_gt_file(self, tmp_path, scene):
        write_scene_dir(scene, tmp_path / "s")
        with pytest.raises(SchemaError, match="nope.json"):
            read_ground_truth(tmp_path / "s" / "nope.json")


def _one_point(x: float) -> PointCloud:
    return PointCloud(np.array([[x, 0.0, 0.0]]))


class TestFrameFileNames:
    """Both directory readers parse frame-file names by one rule."""

    def test_ten_thousand_and_one_frames_read_in_order(self, tmp_path):
        write_epoch_dir(tmp_path, [_one_point(i) for i in range(10_001)])
        assert (tmp_path / "frame_10000.ply").exists()
        frames = read_epoch_dir(tmp_path)
        assert [f.points[0, 0] for f in frames] == list(range(10_001))

    def test_short_name_is_read_by_value(self, tmp_path):
        write_epoch_dir(tmp_path, [_one_point(1.0), _one_point(2.0)])
        (tmp_path / "frame_0002.ply").rename(tmp_path / "frame_2.ply")
        assert [f.points[0, 0] for f in read_epoch_dir(tmp_path)] == [1.0, 2.0]

    def test_gap_names_the_missing_frame(self, tmp_path):
        write_epoch_dir(tmp_path, [_one_point(i) for i in range(3)])
        (tmp_path / "frame_0002.ply").unlink()
        with pytest.raises(SchemaError, match="no frame 2; frames must run 1 to 2"):
            read_epoch_dir(tmp_path)

    def test_second_name_for_an_epoch_frame(self, tmp_path):
        write_epoch_dir(tmp_path, [_one_point(0.0)])
        (tmp_path / "frame_1.ply").write_bytes((tmp_path / "frame_0001.ply").read_bytes())
        with pytest.raises(SchemaError, match="frame_0001.ply and frame_1.ply name the same frame"):
            read_epoch_dir(tmp_path)

    def test_second_name_for_a_joint_frame(self, tmp_path):
        write_joint_dir(tmp_path, JointReconstruction(clouds={(1, 1): _one_point(0.0)}))
        (tmp_path / "e1_frame_01.ply").write_bytes((tmp_path / "e1_frame_0001.ply").read_bytes())
        with pytest.raises(
            SchemaError, match="e1_frame_0001.ply and e1_frame_01.ply name the same frame"
        ):
            read_joint_dir(tmp_path)

    @pytest.mark.parametrize(
        "name", ["e1_frame_1_0.ply", "e+2_frame_0003.ply", "e1_frame_\u0663.ply"]
    )
    def test_unparsable_joint_name(self, tmp_path, name):
        write_joint_dir(tmp_path, JointReconstruction(clouds={(1, 1): _one_point(0.0)}))
        (tmp_path / name).write_bytes((tmp_path / "e1_frame_0001.ply").read_bytes())
        with pytest.raises(SchemaError, match="cannot parse frame numbers"):
            read_joint_dir(tmp_path)

    def test_non_ascii_digit_in_epoch_name(self, tmp_path):
        write_epoch_dir(tmp_path, [_one_point(0.0)])
        (tmp_path / "frame_\u0662.ply").write_bytes((tmp_path / "frame_0001.ply").read_bytes())
        with pytest.raises(SchemaError, match="cannot parse frame numbers"):
            read_epoch_dir(tmp_path)


# Any JSON value: null, booleans, integers of any size, floats including NaN
# and infinities, strings, and small lists and objects of these.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def _one_field_edits(draw, document):
    """``document`` with the value at one drawn key path replaced."""
    path, node = [], document
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    return _replaced(document, path, draw(_JSON_VALUES))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


# Reader under test: the JSON file it reads, relative to the scene directory,
# and how to run it on that file.
JSON_READERS = {
    "read_trajectory": ("e1/trajectory.json", read_trajectory),
    "read_trajectory[gt]": ("gt_trajectories/e2.json", read_trajectory),
    "read_ground_truth": ("gt.json", read_ground_truth),
    "ablate_scene[gt]": ("gt.json", lambda path: _ablate_scene(path.parent)),
    "scene_spec_file": ("scene.json", _scene_spec),
    "final_sim3": ("report.json", lambda path: RunReport.read(path).final_sim3()),
    "SceneSpec.from_dict": (
        "spec.json", lambda path: SceneSpec.from_dict(json.loads(path.read_text()))
    ),
}


@pytest.fixture(scope="module")
def json_scene(tmp_path_factory):
    """A small exported scene plus a run report and a bare spec file."""
    scene = generate_scene(
        SceneSpec(seed=5, n_static=200, n_frames_per_epoch=3, change_spec=(ChangeSpec("moved", 20),))
    )
    directory = tmp_path_factory.mktemp("fuzz") / "s"
    write_scene_dir(scene, directory)
    config = PipelineConfig().to_dict()
    RunReport(config=config, final_transform=scene.gt_relative.to_dict()).write(
        directory / "report.json"
    )
    (directory / "spec.json").write_text(json.dumps(scene.spec.to_dict()))
    return directory


class TestFuzzedJsonReaders:
    """A one-field edit of a valid file either reads or raises a library error."""

    @pytest.mark.parametrize("reader", sorted(JSON_READERS))
    @given(data=st.data())
    def test_returns_or_raises_library_error(self, json_scene, reader, data):
        name, read = JSON_READERS[reader]
        path = json_scene / name
        original = path.read_text()
        path.write_text(json.dumps(data.draw(_one_field_edits(json.loads(original)))))
        try:
            read(path)
        except CloudChangeError:
            pass
        finally:
            path.write_text(original)
