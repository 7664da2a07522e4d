"""Trajectory and transform error metrics, plus the ablation harness.

A :class:`Trajectory` is a track of camera centers: both trajectory metrics
read positions only, so camera orientations are never stored.  The absolute
trajectory error aligns the combined two-epoch camera centers onto the
ground truth with one global similarity fit before measuring the RMSE, so a
single consistent frame offset costs nothing while cross-epoch misalignment
(which no single global transform can absorb) remains visible.  The relative
translation error compares consecutive same-epoch step lengths after the
same alignment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import LabelMismatch, TooFewPoses, check_integer, check_numbers
from .geometry import Sim3Transform, rotation_angle_deg, umeyama

# A coarse ATE of at most this fraction of the scene extent is round-off.
ROUND_OFF_ATE = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Camera centers in frame order, each tagged with its frame and epoch.

    Attributes:
        centers: read-only (n, 3) float64 array of finite camera centers.
        frame_indices: n non-negative frame numbers, strictly increasing
            within an epoch.
        epoch_ids: the epoch of each centre.
    """

    centers: np.ndarray
    frame_indices: tuple
    epoch_ids: tuple

    def __post_init__(self):
        centers = check_numbers(self.centers, "centers").copy()
        frames = tuple(check_integer("frame index", f, 0) for f in self.frame_indices)
        epochs = tuple(check_integer("epoch id", e) for e in self.epoch_ids)
        if centers.shape != (len(frames), 3) or len(epochs) != len(frames):
            raise ValueError("need one 3-vector center, frame index and epoch id per camera")
        if not np.isfinite(centers).all():
            raise ValueError("centers must be finite")
        last = {}
        for frame, epoch in zip(frames, epochs):
            if epoch in last and frame <= last[epoch]:
                raise ValueError("frame indices must strictly increase within an epoch")
            last[epoch] = frame
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "frame_indices", frames)
        object.__setattr__(self, "epoch_ids", epochs)

    def __len__(self) -> int:
        return len(self.frame_indices)

    def labels(self) -> list:
        return list(zip(self.epoch_ids, self.frame_indices))

    def transformed(self, transform: Sim3Transform) -> "Trajectory":
        """The trajectory carried through ``transform``."""
        return Trajectory(transform.apply(self.centers), self.frame_indices, self.epoch_ids)


def stack_epochs(epoch1: Trajectory, epoch2: Trajectory) -> Trajectory:
    """One trajectory holding ``epoch1``'s cameras, then ``epoch2``'s."""
    return Trajectory(
        np.concatenate([epoch1.centers, epoch2.centers]),
        epoch1.frame_indices + epoch2.frame_indices,
        epoch1.epoch_ids + epoch2.epoch_ids,
    )


def combine_trajectories(
    epoch1: Trajectory, epoch2: Trajectory, relative: Sim3Transform
) -> Trajectory:
    """Combined predicted trajectory in epoch 2's frame.

    Epoch 1 is carried over by the estimated relative transform; epoch 2
    passes through unchanged.
    """
    return stack_epochs(epoch1.transformed(relative), epoch2)


def _check_labels(predicted: Trajectory, ground_truth: Trajectory):
    if predicted.labels() != ground_truth.labels():
        raise LabelMismatch("trajectories carry different (epoch, frame) labels")


def _alignment(predicted: Trajectory, ground_truth: Trajectory) -> Sim3Transform:
    return umeyama(predicted.centers, ground_truth.centers)


def ate(predicted: Trajectory, ground_truth: Trajectory) -> float:
    """Absolute trajectory error: RMSE of camera centers after one global
    similarity alignment of the combined trajectory onto the ground truth.

    Raises:
        LabelMismatch: if the trajectories' (epoch, frame) labels differ.
    """
    _check_labels(predicted, ground_truth)
    aligned = _alignment(predicted, ground_truth).apply(predicted.centers)
    err = aligned - ground_truth.centers
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
    aligned = _alignment(predicted, ground_truth).apply(predicted.centers)
    gt = ground_truth.centers
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
    return predicted, stack_epochs(scene.trajectory_t1, scene.trajectory_t2)


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
    registration times.  Columns for modes that were not requested are None,
    and so is delta_pct when the coarse ATE is at most ``ROUND_OFF_ATE`` times
    the extent: a percentage of a round-off baseline is undefined.
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
        if coarse and full and row["ate_coarse"] > ROUND_OFF_ATE * scene.extent:
            row["delta_pct"] = 100.0 * (row["ate_coarse"] - row["ate_full"]) / row["ate_coarse"]
        rows.append(row)
    return rows
