"""Trajectory and transform error metrics, plus the ablation harness.

A :class:`Trajectory` is one epoch's track of camera centers: both
trajectory metrics read positions only, so camera orientations are never
stored, and take the two epochs as an (epoch 1, epoch 2) pair.  The absolute
trajectory error aligns both epochs' camera centers onto the ground truth
with one global similarity fit before measuring the RMSE, so a single
consistent frame offset costs nothing while cross-epoch misalignment (which
no single global transform can absorb) remains visible.  The relative
translation error compares consecutive same-epoch step lengths after the
same alignment.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import LabelMismatch, TooFewPoses, check_integer, check_numbers
from .geometry import Sim3Transform, rotation_angle_deg, umeyama

# A coarse ATE of at most this fraction of the scene extent is round-off.
ROUND_OFF_ATE = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """One epoch's camera centers in frame order, each tagged with its frame.

    Attributes:
        centers: read-only (n, 3) float64 array of finite camera centers.
        frame_indices: n non-negative, strictly increasing frame numbers.
    """

    centers: np.ndarray
    frame_indices: tuple

    def __post_init__(self):
        centers = check_numbers(self.centers, "centers").copy()
        frames = tuple(check_integer("frame index", f, 0) for f in self.frame_indices)
        if centers.shape != (len(frames), 3):
            raise ValueError("need one 3-vector center per frame index")
        if not np.isfinite(centers).all():
            raise ValueError("centers must be finite")
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("frame indices must strictly increase")
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "frame_indices", frames)

    def __len__(self) -> int:
        return len(self.frame_indices)

    def transformed(self, transform: Sim3Transform) -> "Trajectory":
        """The trajectory carried through ``transform``."""
        return Trajectory(transform.apply(self.centers), self.frame_indices)


def check_tracks(predicted: Trajectory, ground_truth: Trajectory, epoch: int):
    """LabelMismatch unless epoch ``epoch``'s predicted and ground-truth tracks
    carry the same frame indices; TooFewPoses unless they hold two poses or more."""
    if predicted.frame_indices != ground_truth.frame_indices:
        raise LabelMismatch(f"epoch {epoch}: trajectories carry different frame indices")
    if len(predicted) < 2:
        raise TooFewPoses(f"epoch {epoch} has fewer than 2 poses")


def _aligned(predicted: tuple, ground_truth: tuple) -> tuple:
    """(aligned predicted, ground-truth) centers of both epochs, epoch 1's
    first, under one similarity fit of the predicted onto the ground truth."""
    for epoch, tracks in enumerate(zip(predicted, ground_truth), start=1):
        check_tracks(*tracks, epoch)
    pred = np.concatenate([t.centers for t in predicted])
    gt = np.concatenate([t.centers for t in ground_truth])
    return umeyama(pred, gt).apply(pred), gt


def ate(predicted: tuple, ground_truth: tuple) -> float:
    """Absolute trajectory error: RMSE of camera centers after one global
    similarity alignment of both epochs onto the ground truth.

    ``predicted`` and ``ground_truth`` are each an (epoch 1, epoch 2) pair
    of trajectories in one frame.

    Raises:
        LabelMismatch: if an epoch's frame indices differ between the two.
        TooFewPoses: if any epoch has fewer than two poses.
    """
    aligned, gt = _aligned(predicted, ground_truth)
    return float(np.sqrt(np.mean(np.sum((aligned - gt) ** 2, axis=1))))


def rte(predicted: tuple, ground_truth: tuple) -> float:
    """Relative translation error over consecutive same-epoch frame pairs.

    After the same global alignment as :func:`ate`, each step's error is
    the absolute difference between the predicted and ground-truth step
    lengths; the result is their RMS.  Cross-epoch pairs are never formed.

    Raises:
        LabelMismatch: if an epoch's frame indices differ between the two.
        TooFewPoses: if any epoch has fewer than two poses.
    """
    aligned, gt = _aligned(predicted, ground_truth)
    n1 = len(predicted[0])
    errors = []
    for epoch in (slice(0, n1), slice(n1, None)):
        step_pred = np.linalg.norm(np.diff(aligned[epoch], axis=0), axis=1)
        step_gt = np.linalg.norm(np.diff(gt[epoch], axis=0), axis=1)
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
        # JSON holds no infinity, and an overflowed metric measures nothing.
        if not all(0.0 <= v < math.inf for v in (self.ate_m, self.rte_m,
                                                   *self.transform_error.values())):
            raise ValueError("error metrics must be finite and non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


def _scene_trajectories(scene, relative: Sim3Transform) -> tuple:
    """(predicted, ground truth) epoch pairs of a synthetic scene under an
    estimated relative transform: epoch 1's predicted track is carried into
    epoch 2's frame by ``relative``, and epoch 2's passes unchanged."""
    predicted = (scene.predicted_trajectory(1).transformed(relative), scene.predicted_trajectory(2))
    return predicted, (scene.trajectory_t1, scene.trajectory_t2)


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
    epoch_bias: float = 0.0,
    frame_drift: float = 0.0,
) -> list:
    """Run the pipeline over keyframe budgets and tabulate ATE per mode.

    Returns one row per budget with the coarse-only and full ATE, the
    relative improvement delta_pct of full over coarse, and wall-clock
    registration times.  Columns for modes that were not requested are None,
    and so is delta_pct when the coarse ATE is at most ``ROUND_OFF_ATE`` times
    the extent: a percentage of a round-off baseline is undefined.
    Each row replaces both fields of ``PipelineConfig`` (its budget and
    mode), so ``config`` changes no row; the keyword arguments configure
    the mock joint-inference error model.

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
            replace(config, k_keyframes=int(k), mode=run_mode),
            joint_sigma=joint_sigma,
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
