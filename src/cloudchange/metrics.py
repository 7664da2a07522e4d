"""Trajectory and transform error metrics, plus the ablation harness.

The absolute trajectory error aligns the combined two-epoch camera centers
onto the ground truth with one global similarity fit before measuring the
RMSE, so a single consistent frame offset costs nothing while cross-epoch
misalignment (which no single global transform can absorb) remains visible.
The relative translation error compares consecutive same-epoch step lengths
after the same alignment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import LabelMismatch, TooFewPoses
from .geometry import SE3Pose, Sim3Transform, rotation_angle_deg, umeyama


@dataclass(frozen=True)
class Trajectory:
    """Ordered camera poses, each tagged with the epoch it belongs to."""

    poses: tuple
    epoch_ids: tuple

    def __post_init__(self):
        poses = tuple(self.poses)
        epochs = tuple(int(e) for e in self.epoch_ids)
        if len(poses) != len(epochs):
            raise ValueError("poses and epoch_ids must have equal length")
        last = {}
        for pose, epoch in zip(poses, epochs):
            if epoch in last and pose.frame_index <= last[epoch]:
                raise ValueError("frame indices must strictly increase within an epoch")
            last[epoch] = pose.frame_index
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "epoch_ids", epochs)

    def __len__(self) -> int:
        return len(self.poses)

    def labels(self) -> list:
        return [(e, p.frame_index) for e, p in zip(self.epoch_ids, self.poses)]

    def centers(self) -> np.ndarray:
        return np.array([p.center for p in self.poses]).reshape(-1, 3)

    def transformed(self, transform: Sim3Transform) -> "Trajectory":
        """The trajectory carried through ``transform``.  Only the centers
        stay metrically meaningful (a similarity does not act on a rigid
        pose's scale), which is all the trajectory metrics use."""
        poses = []
        for pose in self.poses:
            center = transform.apply(pose.center)
            rotation = pose.rotation @ transform.rotation.T
            poses.append(SE3Pose(rotation, -(rotation @ center), frame_index=pose.frame_index))
        return Trajectory(tuple(poses), self.epoch_ids)


def combine_trajectories(
    epoch1: Trajectory, epoch2: Trajectory, relative: Sim3Transform
) -> Trajectory:
    """Combined predicted trajectory in epoch 2's frame.

    Epoch 1 is carried over by the estimated relative transform; epoch 2
    poses pass through unchanged.
    """
    mapped = epoch1.transformed(relative)
    return Trajectory(mapped.poses + epoch2.poses, mapped.epoch_ids + epoch2.epoch_ids)


def _check_labels(predicted: Trajectory, ground_truth: Trajectory):
    if predicted.labels() != ground_truth.labels():
        raise LabelMismatch("trajectories carry different (epoch, frame) labels")


def _alignment(predicted: Trajectory, ground_truth: Trajectory) -> Sim3Transform:
    return umeyama(predicted.centers(), ground_truth.centers())


def ate(predicted: Trajectory, ground_truth: Trajectory) -> float:
    """Absolute trajectory error: RMSE of camera centers after one global
    similarity alignment of the combined trajectory onto the ground truth.

    Raises:
        LabelMismatch: if the trajectories' (epoch, frame) labels differ.
    """
    _check_labels(predicted, ground_truth)
    aligned = _alignment(predicted, ground_truth).apply(predicted.centers())
    err = aligned - ground_truth.centers()
    return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))


def rte(predicted: Trajectory, ground_truth: Trajectory) -> float:
    """Relative translation error over consecutive same-epoch frame pairs.

    After the same global alignment as :func:`ate`, each step's error is
    the absolute difference between the predicted and ground-truth step
    lengths; the result is their RMS.  Cross-epoch pairs are never formed.

    Raises:
        TooFewPoses: if any epoch has fewer than two poses.
    """
    _check_labels(predicted, ground_truth)
    epochs = sorted(set(predicted.epoch_ids))
    ids = np.asarray(predicted.epoch_ids)
    for epoch in epochs:
        if int((ids == epoch).sum()) < 2:
            raise TooFewPoses(f"epoch {epoch} has fewer than 2 poses")
    aligned = _alignment(predicted, ground_truth).apply(predicted.centers())
    gt = ground_truth.centers()
    errors = []
    for epoch in epochs:
        sel = np.nonzero(ids == epoch)[0]
        step_pred = np.linalg.norm(np.diff(aligned[sel], axis=0), axis=1)
        step_gt = np.linalg.norm(np.diff(gt[sel], axis=0), axis=1)
        errors.append(np.abs(step_pred - step_gt))
    errors = np.concatenate(errors)
    return float(np.sqrt(np.mean(errors**2)))


def transform_error(estimated: Sim3Transform, ground_truth: Sim3Transform) -> dict:
    """Componentwise error of an estimated transform against ground truth."""
    return {
        "scale_ratio_error": abs(estimated.scale / ground_truth.scale - 1.0),
        "rotation_deg": rotation_angle_deg(estimated.rotation @ ground_truth.rotation.T),
        "translation_norm": float(
            np.linalg.norm(estimated.translation - ground_truth.translation)
        ),
    }


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation summary for one registration run."""

    ate_m: float
    rte_m: float
    transform_error: dict
    config: dict

    def __post_init__(self):
        if self.ate_m < 0.0 or self.rte_m < 0.0:
            raise ValueError("error metrics cannot be negative")
        if any(v < 0.0 for v in self.transform_error.values()):
            raise ValueError("transform error components cannot be negative")

    def to_dict(self) -> dict:
        return asdict(self)


def _scene_trajectories(scene, relative: Sim3Transform) -> tuple:
    """(predicted, ground truth) combined trajectories of a synthetic scene
    under an estimated relative transform."""
    predicted = combine_trajectories(
        scene.predicted_trajectory(1), scene.predicted_trajectory(2), relative
    )
    ground_truth = Trajectory(
        scene.trajectory_t1.poses + scene.trajectory_t2.poses,
        scene.trajectory_t1.epoch_ids + scene.trajectory_t2.epoch_ids,
    )
    return predicted, ground_truth


def evaluate_scene_run(scene, result) -> MetricsReport:
    """Metrics for a registration result on a synthetic scene."""
    pred, gt = _scene_trajectories(scene, result.final_transform)
    return MetricsReport(
        ate_m=ate(pred, gt),
        rte_m=rte(pred, gt),
        transform_error=transform_error(result.final_transform, scene.gt_relative),
        config=dict(result.config_echo),
    )


def ablation_sweep(
    scene,
    k_values,
    modes,
    config,
    joint_sigma: float = 0.0,
    warp_amplitude: float = 0.0,
    epoch_bias: float = 0.0,
    frame_drift: float = 0.0,
) -> list:
    """Run the pipeline over keyframe budgets and tabulate ATE per mode.

    Returns one row per budget with the coarse-only and full ATE, the
    relative improvement delta_pct of full over coarse, and wall-clock
    registration times.  Columns for modes that were not requested are None.
    ``config`` sets all but each row's budget and mode; the keyword
    arguments configure the mock joint-inference error model.

    Each budget is registered once with ``register_scene``, in full mode if
    requested: that run computes the coarse-only result on its way, so
    ``time_coarse_s`` is its coarse stage (``timings["coarse_s"]``) and
    ``time_full_s`` its whole ``registration_s``.  The mock joint and the
    fine stage's inputs do not depend on the budget, so the scene builds
    them on the first registration and every budget reuses them; neither
    time column includes that preparation.  Raises ValueError, before
    registering anything, on empty ``modes`` or a mode outside
    ``pipeline.MODES``.
    """
    from .pipeline import MODES, register_scene

    if not modes or not set(modes) <= set(MODES):
        raise ValueError(f"modes must be a non-empty subset of {MODES}, got {tuple(modes)}")
    coarse, full = "coarse_only" in modes, "full" in modes
    run_mode = "full" if full else "coarse_only"
    rows = []
    for k in k_values:
        result = register_scene(
            scene,
            config.replace(k_keyframes=int(k), mode=run_mode),
            joint_sigma=joint_sigma,
            warp_amplitude=warp_amplitude,
            epoch_bias=epoch_bias,
            frame_drift=frame_drift,
        )
        row = {
            "k": int(k),
            "ate_coarse": (
                ate(*_scene_trajectories(scene, result.coarse_relative)) if coarse else None
            ),
            "ate_full": evaluate_scene_run(scene, result).ate_m if full else None,
            "delta_pct": None,
            "time_coarse_s": result.timings["coarse_s"] if coarse else None,
            "time_full_s": result.timings["registration_s"] if full else None,
        }
        if coarse and full:
            if row["ate_coarse"] > 0.0:
                row["delta_pct"] = 100.0 * (row["ate_coarse"] - row["ate_full"]) / row["ate_coarse"]
            else:
                row["delta_pct"] = 0.0
        rows.append(row)
    return rows
