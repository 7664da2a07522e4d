"""Structured on-disk formats: epoch and joint directories, trajectories, scenes.

An *epoch directory* holds one PLY cloud per frame (x, y, z, confidence),
named frame_0001.ply onward, plus an optional trajectory.json.  A *joint
directory* holds the keyframe clouds of both epochs in one shared frame, named
e{epoch}_frame_NNNN.ply and pixel-aligned with the epoch frames.  The numbers
in a frame-file name are ASCII digits, the frame number written with at least
four; readers take each number by its value, so frame_10000.ply follows
frame_9999.ply.  One file per frame: two names with the same numbers
(frame_1.ply and frame_0001.ply) are a :class:`SchemaError` naming both, and
so is a name that does not parse.  A *scene
directory* is the exported form of a synthetic bi-temporal scene: both epoch
directories, predicted and ground-truth trajectories, a joint directory, and a
gt.json with the two ground-truth epoch transforms (the relative transform is
derived from them, never stored) and per-point change labels.  Each per-point
field of gt.json is one standard base64 string (RFC 4648) of a little-endian
array, one value per point of its epoch: ``uint8`` change labels and edge
flags (0 or 1), and ``int64`` generation indices.  The JSON-list form of
these fields that older files hold is no longer read.

Every JSON file read here declares a ``format_version``; readers reject
unknown major versions with a :class:`SchemaError` naming the offending
file.  This module owns that version, its check, and the reading and
writing of JSON files.  Each reader checks its fields with
:func:`errors.check_fields` and ignores keys it does not know, so files
stay readable across minor versions.  :func:`read_ground_truth` decodes the
header fields of gt.json, which ``eval`` needs; only :func:`read_scene_dir`
decodes its per-point fields.
"""

from __future__ import annotations

import base64
import json
import re
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
# The per-point fields of gt.json and the little-endian dtype each encodes:
# 0/1 change labels and edge flags, and each point's index in generation order.
_POINT_DTYPES = {"labels_t1": "u1", "labels_t2": "u1", "edge_t1": "u1", "edge_t2": "u1",
                 "origin_t1": "<i8", "origin_t2": "<i8"}


def check_version(version, path):
    """Reject a ``format_version`` whose major part differs from ours."""
    if not isinstance(version, str) or version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise SchemaError(f"{path}: unsupported format_version {version!r}")


def load_json(path):
    """Decode a UTF-8 JSON file.

    Raises:
        SchemaError: naming ``path`` when the file is missing or is not UTF-8
            JSON.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None


def read_json(path) -> dict:
    """Load a JSON object that declares a supported ``format_version``.

    Raises:
        SchemaError: naming ``path`` when :func:`load_json` fails, or the
            file is not an object or carries an unsupported version.
    """
    data = load_json(path)
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


def _frame_files(directory: Path, pattern: str) -> dict:
    """Map each file matching ``pattern`` (one ``*`` per number) to its
    numbers, epoch first.  Raises :class:`SchemaError` when none matches, a
    name does not parse, or two names carry the same numbers."""
    name_rule = re.compile(pattern.removesuffix(".ply").replace("*", "([0-9]+)"))
    files = {}
    for path in sorted(directory.glob(pattern)):
        match = name_rule.fullmatch(path.stem)
        if match is None:
            raise SchemaError(f"{path}: cannot parse frame numbers from the file name")
        key = tuple(int(number) for number in match.groups())
        if key in files:
            raise SchemaError(f"{directory}: {files[key].name} and {path.name} name the same frame")
        files[key] = path
    if not files:
        raise SchemaError(f"{directory}: no {pattern} files found")
    return files


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

    The files must number the frames 1 to n with no gap; element i of the
    result is frame i + 1.
    """
    directory = Path(directory)
    files = _frame_files(directory, "frame_*.ply")
    frames = []
    for index in range(1, len(files) + 1):
        path = files.get((index,))
        if path is None:
            raise SchemaError(f"{directory}: no frame {index}; frames must run 1 to {len(files)}")
        frames.append(read_ply(path))
    return frames


def write_joint_dir(directory, joint: JointReconstruction):
    """Write the shared-frame keyframe clouds as e{epoch}_frame_NNNN.ply."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for (epoch_id, index), cloud in sorted(joint.clouds.items()):
        write_ply(cloud, directory / f"e{epoch_id}_{_frame_stem(index)}.ply")


def read_joint_dir(directory) -> JointReconstruction:
    files = _frame_files(Path(directory), "e*_frame_*.ply")
    return JointReconstruction(clouds={key: read_ply(path) for key, path in sorted(files.items())})


def scene_ground_truth_dict(scene) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "seed": scene.spec.seed,
        "n_frames": scene.spec.n_frames_per_epoch,
        "extent": scene.extent,
        "epoch_transforms": [t.to_dict() for t in scene.epoch_transforms],
        **{
            key: base64.b64encode(getattr(scene, key).astype(dtype).tobytes()).decode("ascii")
            for key, dtype in _POINT_DTYPES.items()
        },
    }


def read_ground_truth(path) -> dict:
    """Parse a gt.json: ``seed``, ``n_frames``, ``extent`` and the two
    ``epoch_transforms``, decoded, plus the per-point fields of
    ``_POINT_DTYPES`` as the file holds them (``None`` when absent): base64
    text, which only :func:`read_scene_dir` decodes.  The ``gt_relative`` key
    of older files is ignored."""
    data = read_json(path)
    gt = check_fields(data, _GT_TYPES, tuple(_GT_TYPES), str(path), SchemaError)
    if len(gt["epoch_transforms"]) != 2:
        raise SchemaError(f"{path}: epoch_transforms must hold exactly two transforms")
    gt["epoch_transforms"] = tuple(
        Sim3Transform.from_dict(t, f"{path}: epoch_transforms") for t in gt["epoch_transforms"]
    )
    return {**gt, **{key: data.get(key) for key in _POINT_DTYPES}}


def _point_values(text, n_points: int, dtype: str, high: int, what: str) -> np.ndarray:
    """A per-point field of gt.json: base64 of ``n_points`` little-endian
    ``dtype`` values in [0, high]."""
    try:  # TypeError: not a string (the old list form); ValueError: not base64 of whole values
        values = np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype)
    except (TypeError, ValueError):
        values = None
    if values is None or len(values) != n_points or ((values < 0) | (values > high)).any():
        raise SchemaError(
            f"{what} must be base64 of {n_points} little-endian {np.dtype(dtype)} values"
            f" from 0 to {high}"
        )
    return values


def write_scene_dir(scene, directory, joint_sigma: float = 0.0, warp_amplitude: float = 0.0):
    """Export a synthetic scene to the directory layout the pipeline ingests.

    Layout::

        scene.json                  spec echo
        gt.json                     seed, frame count, extent, both epoch
                                    transforms; per point the change label,
                                    edge flag (base64 uint8) and generation
                                    index (base64 little-endian int64)
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
    byte-identical cloud files and gt.json.  Each per-point field of gt.json
    must be a base64 string (validated strictly) of one little-endian value
    per point of its epoch: ``uint8`` 0 or 1, or for ``origin_*`` an ``int64``
    index below the point count.  Anything else, including the JSON list that
    older files hold, raises :class:`SchemaError` naming gt.json and the key.
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
    for key, dtype in _POINT_DTYPES.items():
        n_points = len(clouds[int(key[-1]) - 1])
        is_origin = key.startswith("origin")
        high = n_points - 1 if is_origin else 1
        values = _point_values(gt[key], n_points, dtype, high, f"{gt_path}: {key}")
        per_point[key] = values.astype(np.int64 if is_origin else bool)
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
