"""Structured on-disk formats: epoch and joint directories, trajectories, scenes.

An *epoch directory* holds one PLY cloud per frame (x, y, z, confidence),
named frame_0001.ply onward, plus an optional trajectory.json.  A *joint
directory* holds the keyframe clouds of both epochs in one shared frame, named
e{epoch}_frame_NNNN.ply and pixel-aligned with the epoch frames.  A *scene
directory* is the exported form of a synthetic bi-temporal scene: both epoch
directories, predicted and ground-truth trajectories, a joint directory, and a
gt.json with the two ground-truth epoch transforms (the relative transform is
derived from them, never stored) and per-point change labels.

Every JSON file read here declares a ``format_version``; readers reject
unknown major versions with a :class:`SchemaError` naming the offending
file.  This module owns that version, its check, and the reading and
writing of JSON files.  Each reader checks its fields with
:func:`errors.check_fields` and ignores keys it does not know, so files
stay readable across minor versions.  :func:`read_ground_truth` decodes the
header fields of gt.json, which ``eval`` needs; only :func:`read_scene_dir`
decodes its per-point lists.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cloud import PointCloud
from .coarse import JointReconstruction
from .errors import InvalidSpec, SchemaError, check_fields
from .geometry import SE3Pose, Sim3Transform
from .metrics import Trajectory
from .ply import read_ply, write_ply
from .synthetic import (
    BiTemporalScene,
    SceneSpec,
    all_frames_keyframes,
    mock_joint_inference,
)

FORMAT_VERSION = "1.0"

_POSE_TYPES = {"epoch_id": int, "frame_index": int, "rotation": list, "translation": list}
_GT_TYPES = {"seed": int, "n_frames": int, "extent": float, "epoch_transforms": list}
# The per-point lists of gt.json: 0/1 change labels and edge flags, and each
# point's index in generation order.
_POINT_KEYS = ("labels_t1", "labels_t2", "edge_t1", "edge_t2", "origin_t1", "origin_t2")


def check_version(version, path):
    """Reject a ``format_version`` whose major part differs from ours."""
    if not isinstance(version, str) or version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise SchemaError(f"{path}: unsupported format_version {version!r}")


def read_json(path) -> dict:
    """Load a JSON object that declares a supported ``format_version``.

    Raises:
        SchemaError: naming ``path`` when the file is missing, is not UTF-8
            JSON, is not an object, or carries an unsupported version.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    check_fields(data, {"format_version": str}, ("format_version",), str(path), SchemaError)
    check_version(data["format_version"], path)
    return data


def write_json(path, data: dict):
    """Write ``data`` as sorted, two-space-indented JSON plus a newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _frame_stem(index: int) -> str:
    return f"frame_{index:04d}"


def write_trajectory(path, trajectory: Trajectory):
    epochs = sorted(set(trajectory.epoch_ids))
    data = {
        "format_version": FORMAT_VERSION,
        "epoch_id": epochs[0] if len(epochs) == 1 else None,
        "poses": [
            {
                "epoch_id": epoch,
                "frame_index": pose.frame_index,
                "rotation": pose.rotation.tolist(),
                "translation": pose.translation.tolist(),
            }
            for epoch, pose in zip(trajectory.epoch_ids, trajectory.poses)
        ],
    }
    write_json(path, data)


def read_trajectory(path) -> Trajectory:
    entries = check_fields(read_json(path), {"poses": list}, ("poses",), str(path), SchemaError)
    poses, epochs = [], []
    for i, entry in enumerate(entries["poses"]):
        what = f"{path}: pose {i}"
        pose = check_fields(entry, _POSE_TYPES, tuple(_POSE_TYPES), what, SchemaError)
        try:
            poses.append(SE3Pose(pose["rotation"], pose["translation"], pose["frame_index"]))
        except ValueError as exc:
            raise SchemaError(f"{what}: {exc}") from None
        epochs.append(pose["epoch_id"])
    try:
        return Trajectory(tuple(poses), tuple(epochs))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def write_epoch_dir(directory, frames: list, trajectory: Trajectory = None):
    """Write per-frame PLY clouds (frame_0001.ply, ...) and a trajectory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for index, cloud in enumerate(frames, start=1):
        write_ply(cloud, directory / f"{_frame_stem(index)}.ply")
    if trajectory is not None:
        write_trajectory(directory / "trajectory.json", trajectory)


def read_epoch_dir(directory) -> list:
    """Read the per-frame clouds of an epoch directory, in frame order.

    The files must be named frame_0001.ply, frame_0002.ply, ... with no gap;
    element i of the result is frame i + 1.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("frame_*.ply"))
    if not paths:
        raise SchemaError(f"{directory}: no frame_*.ply files found")
    frames = []
    for expected, path in enumerate(paths, start=1):
        token = path.stem[len("frame_"):]
        if not (token.isascii() and token.isdigit()):
            raise SchemaError(f"{path}: cannot parse a frame number from the file name")
        if int(token) != expected:
            raise SchemaError(f"{directory}: frame files are not consecutive at {path.name}")
        frames.append(read_ply(path))
    return frames


def write_joint_dir(directory, joint: JointReconstruction):
    """Write the shared-frame keyframe clouds as e{epoch}_frame_NNNN.ply."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for (epoch_id, index), cloud in sorted(joint.clouds.items()):
        write_ply(cloud, directory / f"e{epoch_id}_{_frame_stem(index)}.ply")


def read_joint_dir(directory) -> JointReconstruction:
    directory = Path(directory)
    paths = sorted(directory.glob("e*_frame_*.ply"))
    if not paths:
        raise SchemaError(f"{directory}: no e*_frame_*.ply files found")
    clouds = {}
    for path in paths:
        epoch_token, _, frame_token = path.stem.partition("_frame_")
        try:
            key = (int(epoch_token[1:]), int(frame_token))
        except ValueError:
            raise SchemaError(f"{directory}: cannot parse joint file name {path.name!r}") from None
        clouds[key] = read_ply(path)
    return JointReconstruction(clouds=clouds)


def scene_ground_truth_dict(scene) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "seed": scene.spec.seed,
        "n_frames": scene.spec.n_frames_per_epoch,
        "extent": scene.extent,
        "epoch_transforms": [t.to_dict() for t in scene.epoch_transforms],
        **{key: getattr(scene, key).astype(int).tolist() for key in _POINT_KEYS},
    }


def read_ground_truth(path) -> dict:
    """Parse a gt.json: ``seed``, ``n_frames``, ``extent`` and the two
    ``epoch_transforms``, decoded, plus the lists of ``_POINT_KEYS`` as the
    file holds them (``None`` when absent), which :func:`read_scene_dir`
    decodes.  The ``gt_relative`` key of older files is ignored."""
    data = read_json(path)
    gt = check_fields(data, _GT_TYPES, tuple(_GT_TYPES), str(path), SchemaError)
    if len(gt["epoch_transforms"]) != 2:
        raise SchemaError(f"{path}: epoch_transforms must hold exactly two transforms")
    gt["epoch_transforms"] = tuple(
        Sim3Transform.from_dict(t, f"{path}: epoch_transforms") for t in gt["epoch_transforms"]
    )
    return {**gt, **{key: data.get(key) for key in _POINT_KEYS}}


def _point_values(values, n_points: int, high: int, what: str) -> np.ndarray:
    """A per-point list of gt.json: ``n_points`` JSON integers in [0, high]."""
    if not (
        isinstance(values, list) and len(values) == n_points and set(map(type, values)) <= {int}
        and (not values or 0 <= min(values) and max(values) <= high)
    ):
        raise SchemaError(f"{what} must list {n_points} integers from 0 to {high}")
    return np.array(values, dtype=np.int64)


def write_scene_dir(scene, directory, joint_sigma: float = 0.0, warp_amplitude: float = 0.0):
    """Export a synthetic scene to the directory layout the pipeline ingests.

    Layout::

        scene.json                  spec echo
        gt.json                     seed, frame count, extent, both epoch
                                    transforms; per point the change label,
                                    edge flag and generation index
        e1/frame_NNNN.ply           per-frame epoch-1 clouds
        e1/trajectory.json          epoch-frame camera trajectory
        e2/...                      likewise for epoch 2
        gt_trajectories/e1.json     world-frame ground-truth trajectories
        joint/e{k}_frame_NNNN.ply   shared-frame keyframe clouds (all frames)
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec = {"format_version": FORMAT_VERSION, **scene.spec.to_dict()}
    write_json(directory / "scene.json", spec)
    write_json(directory / "gt.json", scene_ground_truth_dict(scene))
    for epoch_id, name in ((1, "e1"), (2, "e2")):
        write_epoch_dir(
            directory / name,
            scene.epoch_frames(epoch_id),
            scene.predicted_trajectory(epoch_id),
        )
    gt_dir = directory / "gt_trajectories"
    gt_dir.mkdir(exist_ok=True)
    write_trajectory(gt_dir / "e1.json", scene.trajectory_t1)
    write_trajectory(gt_dir / "e2.json", scene.trajectory_t2)
    joint = mock_joint_inference(
        scene, all_frames_keyframes(scene), sigma=joint_sigma, warp_amplitude=warp_amplitude
    )
    write_joint_dir(directory / "joint", joint)


def read_scene_dir(directory) -> BiTemporalScene:
    """Rebuild a synthetic scene from its exported directory.

    Positions round through the PLY float32 encoding, so the rebuilt scene
    matches the original to float32 precision; re-exporting it writes
    byte-identical cloud files.  Each per-point list of gt.json must hold one
    JSON integer per point of its epoch: 0 or 1, or for ``origin_*`` an index
    below the point count; anything else raises :class:`SchemaError`.
    """
    directory = Path(directory)
    spec_path = directory / "scene.json"
    spec_data = read_json(spec_path)
    del spec_data["format_version"]
    try:
        spec = SceneSpec.from_dict(spec_data)
    except InvalidSpec as exc:
        raise SchemaError(f"{spec_path}: {exc}") from None
    gt_path = directory / "gt.json"
    gt = read_ground_truth(gt_path)
    spec = replace(spec, epoch_transforms=gt["epoch_transforms"])

    clouds, worlds, bounds = [], [], []
    for epoch_id, name in ((1, "e1"), (2, "e2")):
        frames = read_epoch_dir(directory / name)
        if len(frames) != spec.n_frames_per_epoch:
            declared = f"scene.json declares {spec.n_frames_per_epoch}"
            raise SchemaError(f"{directory / name}: {len(frames)} frame files, {declared}")
        cloud = PointCloud.concatenate(frames)
        clouds.append(cloud)
        worlds.append(spec.epoch_transforms[epoch_id - 1].apply(cloud.points))
        bounds.append(np.cumsum([0] + [len(frame) for frame in frames]))

    per_point = {}
    for key in _POINT_KEYS:
        n_points = len(clouds[int(key[-1]) - 1])
        is_origin = key.startswith("origin")
        high = n_points - 1 if is_origin else 1
        values = _point_values(gt[key], n_points, high, f"{gt_path}: {key}")
        per_point[key] = values if is_origin else values.astype(bool)
    return BiTemporalScene(
        spec=spec,
        cloud_t1=clouds[0],
        cloud_t2=clouds[1],
        world_t1=worlds[0],
        world_t2=worlds[1],
        **per_point,
        frame_bounds_t1=bounds[0],
        frame_bounds_t2=bounds[1],
        trajectory_t1=read_trajectory(directory / "gt_trajectories" / "e1.json"),
        trajectory_t2=read_trajectory(directory / "gt_trajectories" / "e2.json"),
        extent=gt["extent"],
    )
