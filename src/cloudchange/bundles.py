"""Structured on-disk formats: epoch and joint directories, trajectories, scenes.

An *epoch directory* holds one PLY cloud per frame (x, y, z, confidence),
named frame_0001.ply onward, plus an optional trajectory.json.  A *joint
directory* holds the keyframe clouds of both epochs in one shared frame, named
e{epoch}_frame_NNNN.ply and pixel-aligned with the epoch frames.  The numbers
in a frame-file name are ASCII digits, the frame number written with at least
four; readers take each number by its value, so frame_10000.ply follows
frame_9999.ply.  One file per frame: two names with the same numbers
(frame_1.ply and frame_0001.ply) are a :class:`SchemaError` naming both, and
so is a name that does not parse.  A *scene directory* is the export of a
synthetic bi-temporal scene, never read back whole: both epoch directories,
predicted and ground-truth trajectories, a joint directory, the spec as
scene.json, and a gt.json with the seed, frame count, extent and the two
ground-truth epoch transforms (the relative transform is derived from them,
never stored).  A scene is a pure function of its spec and those transforms,
so ``ablate`` regenerates it, change labels included, from scene.json and
gt.json.  scene.json holds the generator parameters and the ``joint_sigma``
of its joint directory (a file without that key reads as 0.0); a key outside
them, such as the camera-route flag of older files, is an
:class:`errors.InvalidSpec` naming the file, and ``synth`` writes the scene
again.

A trajectory file holds one epoch's cameras, and its path gives the epoch:
e{k}/trajectory.json in epoch k's own frame, gt_trajectories/e{k}.json in
the world frame.  It lists them under ``poses``, one object per camera in strictly
increasing frame order: ``frame_index`` and ``center``, three numbers in
the frame of the clouds it accompanies.  Camera orientations are not stored.
The per-pose ``epoch_id`` of older files is ignored like any unknown key.
The rotation-and-translation entries that older files hold are no longer
read: such a file is a :class:`SchemaError` naming it and its first entry,
and ``synth`` writes the scene again.

Every JSON file read here declares a ``format_version``; readers reject
unknown major versions with a :class:`SchemaError` naming the offending
file.  This module owns that version, its check, and the reading and
writing of JSON files: no other module imports ``json``.  A NaN, an
infinity or a number beyond float range is a :class:`SchemaError` naming
the file wherever it stands, since no output could hold it.  Each reader
checks its fields with :func:`errors.check_fields` and ignores keys it does
not know, so files stay readable across minor versions.
:func:`read_ground_truth` decodes the header fields of gt.json, which
``eval`` and ``ablate`` need.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from .coarse import JointReconstruction
from .errors import SchemaError, check_fields, check_non_negative
from .geometry import Sim3Transform
from .metrics import Trajectory
from .ply import read_ply, write_ply
from .synthetic import all_frames_keyframes, mock_joint_inference

FORMAT_VERSION = "1.0"

_POSE_TYPES = {"frame_index": int, "center": list}
_GT_TYPES = {"seed": int, "n_frames": int, "extent": float, "epoch_transforms": list}


def check_version(version, path):
    """Reject a ``format_version`` whose major part differs from ours."""
    if not isinstance(version, str) or version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise SchemaError(f"{path}: unsupported format_version {version!r}")


def _non_finite(literal):
    """Reject a ``NaN``, ``Infinity`` or ``-Infinity`` literal."""
    raise ValueError(f"{literal} is not a finite number")


def _finite_float(literal):
    """A float literal's value, unless it overflows to an infinity."""
    value = float(literal)
    if not math.isfinite(value):
        _non_finite(literal)
    return value


def load_json(path):
    """Decode a UTF-8 JSON file whose numbers are all finite.

    Raises:
        SchemaError: naming ``path`` when the file is missing or is not UTF-8
            JSON, or holds ``NaN``, ``Infinity`` or a number beyond float range.
    """
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"),
                          parse_constant=_non_finite, parse_float=_finite_float)
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found") from None
    except ValueError as exc:  # undecodable bytes, bad syntax or a non-finite number
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


def json_text(data: dict) -> str:
    """``data`` as sorted, two-space-indented JSON plus a newline;
    ValueError on a NaN or an infinity, which JSON cannot hold."""
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, data: dict):
    """Write :func:`json_text` of ``data``; a value it rejects leaves ``path`` as it was."""
    Path(path).write_text(json_text(data), encoding="utf-8")


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
    data = {
        "format_version": FORMAT_VERSION,
        "poses": [
            {"frame_index": frame, "center": center}
            for frame, center in zip(trajectory.frame_indices, trajectory.centers.tolist())
        ],
    }
    write_json(path, data)


def read_trajectory(path) -> Trajectory:
    entries = check_fields(read_json(path), {"poses": list}, ("poses",), str(path), SchemaError)
    poses = [
        check_fields(entry, _POSE_TYPES, tuple(_POSE_TYPES), f"{path}: pose {i}", SchemaError)
        for i, entry in enumerate(entries["poses"])
    ]
    try:
        return Trajectory([pose["center"] for pose in poses], [pose["frame_index"] for pose in poses])
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
    }


def read_ground_truth(path) -> dict:
    """Parse the header of a gt.json: ``seed``, ``n_frames``, ``extent`` and
    the two ``epoch_transforms``, decoded.  Other keys, such as the
    per-point fields and ``gt_relative`` of older files, are not read."""
    gt = check_fields(read_json(path), _GT_TYPES, tuple(_GT_TYPES), str(path), SchemaError)
    if len(gt["epoch_transforms"]) != 2:
        raise SchemaError(f"{path}: epoch_transforms must hold exactly two transforms")
    gt["epoch_transforms"] = tuple(
        Sim3Transform.from_dict(t, f"{path}: epoch_transforms") for t in gt["epoch_transforms"]
    )
    return gt


def write_scene_dir(scene, directory, joint_sigma: float = 0.0):
    """Export a synthetic scene to the directory layout the pipeline ingests.

    Layout::

        scene.json                  generator parameters (SceneSpec.to_dict)
                                    and the joint_sigma of joint/
        gt.json                     seed, frame count, extent, both epoch
                                    transforms
        e1/frame_NNNN.ply           per-frame epoch-1 clouds
        e1/trajectory.json          epoch-frame camera centers
        e2/...                      likewise for epoch 2
        gt_trajectories/e1.json     world-frame ground-truth camera centers
                                    (and e2.json)
        joint/e{k}_frame_NNNN.ply   shared-frame keyframe clouds (all frames)

    A frame file in ``directory`` that this export does not write (another
    scene's, which the readers would mix in) is a :class:`SchemaError`,
    raised before anything is written.
    """
    joint_sigma = check_non_negative("joint_sigma", joint_sigma)
    directory = Path(directory)
    frames = {f"{_frame_stem(index)}.ply" for index in range(1, scene.spec.n_frames_per_epoch + 1)}
    joint_frames = {f"e{epoch_id}_{name}" for epoch_id in (1, 2) for name in frames}
    for name, pattern, written in (("e1", "frame_*.ply", frames), ("e2", "frame_*.ply", frames),
                                   ("joint", "e*_frame_*.ply", joint_frames)):
        for path in sorted((directory / name).glob(pattern)):
            if path.name not in written:
                raise SchemaError(f"{path}: not a frame of this scene; export into an empty directory")
    directory.mkdir(parents=True, exist_ok=True)
    spec = {"format_version": FORMAT_VERSION, **scene.spec.to_dict(), "joint_sigma": joint_sigma}
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
    joint = mock_joint_inference(scene, all_frames_keyframes(scene), sigma=joint_sigma)
    write_joint_dir(directory / "joint", joint)
