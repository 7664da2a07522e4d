"""Run orchestration: configuration, the two-stage registration, run reports.

:class:`PipelineConfig` holds what a caller varies: the keyframe budget and
the mode.  The rest of the method's operating point is fixed:
``coarse.CORRESPONDENCE_CAP`` pairs per epoch fit, drawn by a generator
seeded with the epoch id, ``cloud.GRID_RESOLUTION`` voxels across the fine
stage's clouds and its static-set threshold of ``fine.ALPHA`` times the
median residual.

The registration proper is a sequential stage graph: keyframe selection,
pixel-aligned correspondences against the joint reconstruction, one
closed-form similarity fit per epoch, composition into the relative
transform, and (in full mode) the purified translation refinement on the
filtered, voxel-downsampled dense clouds.  Only the coarse stage depends on
the keyframe budget; the fine stage's input clouds come from
:func:`prepare_fine_inputs`.

Wall-clock timings cover only these stages, never file ingestion or scene
generation, and live in a separate report section so reports stay
byte-identical across runs.  :func:`register_epochs` prepares the fine
stage's inputs itself and times that preparation with the fine stage.
:func:`register_scene` prepares them, and the mock joint reconstruction,
once per scene (see :meth:`BiTemporalScene.prepared`) before it registers,
so its timings cover the coarse stage and the refinement alone.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .bundles import FORMAT_VERSION, json_text, read_json
from .changes import DEFAULT_TAU_RATIO, ChangeMap, change_scores, classify_changes
from .cloud import (
    PointCloud,
    median_confidence_mask,
    voxel_downsample_indices,
    voxel_grid_params,
)
from .coarse import (
    EpochAlignment,
    JointReconstruction,
    build_keyframe_correspondences,
    estimate_epoch_alignment,
)
from .errors import MisalignedInputs, SchemaError, check_fields, check_integer
from .fine import FineResult, fine_stage
from .geometry import Sim3Transform, compose_relative
from .keyframes import fps_temporal
from .metrics import MetricsReport

MODES = ("coarse_only", "full")


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings with their default operating points.

    Attributes:
        k_keyframes: keyframe budget per epoch.
        mode: "coarse_only" or "full".
    """

    k_keyframes: int = 5
    mode: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "k_keyframes", check_integer("k_keyframes", self.k_keyframes, 1))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RegistrationResult:
    """Everything the two registration stages produced."""

    alignment1: EpochAlignment
    alignment2: EpochAlignment
    coarse_relative: Sim3Transform
    fine: FineResult
    final_transform: Sim3Transform
    cloud_stats: dict
    timings: dict
    config_echo: dict


def _alignment_dict(a: EpochAlignment) -> dict:
    return {
        "epoch_id": a.epoch_id,
        "transform": a.transform.to_dict(),
        "n_correspondences": a.n_correspondences,
        "residual_rms": a.residual_rms,
    }


@dataclass(frozen=True)
class FineInputs:
    """The fine stage's input clouds, which depend on the frames alone, not
    on the keyframe budget.

    Attributes:
        source: epoch 1, confidence-filtered and voxel-downsampled.
        target: epoch 2, filtered and downsampled alike.
        cloud_stats: each epoch's point count after filtering and after
            downsampling, under ``t1_filtered``, ``t1_downsampled``,
            ``t2_filtered`` and ``t2_downsampled``.
    """

    source: PointCloud
    target: PointCloud
    cloud_stats: dict


def prepare_fine_inputs(frames1: list, frames2: list) -> FineInputs:
    """Concatenate, confidence-filter and voxel-downsample each epoch's frames."""
    downsampled, stats = [], {}
    for label, frames in (("t1", frames1), ("t2", frames2)):
        cloud = PointCloud.concatenate(frames)
        filtered = cloud.select(median_confidence_mask(cloud.confidence))
        grid = voxel_grid_params(filtered)
        voxel_keep = voxel_downsample_indices(filtered, grid)
        downsampled.append(filtered.select(voxel_keep))
        stats[f"{label}_filtered"] = len(filtered)
        stats[f"{label}_downsampled"] = len(voxel_keep)
    return FineInputs(downsampled[0], downsampled[1], stats)


def register_epochs(
    frames1: list,
    frames2: list,
    joint: JointReconstruction,
    config: PipelineConfig = None,
    *,
    fine_inputs: FineInputs = None,
) -> RegistrationResult:
    """Register epoch 1 onto epoch 2 from per-frame clouds.

    Args:
        frames1: epoch 1 clouds, one per frame in frame order (1-based).
        frames2: epoch 2 clouds, likewise.
        joint: shared-frame keyframe clouds covering at least the keyframes
            the budget selects, pixel-aligned with the per-frame clouds.
        config: pipeline parameters; defaults apply when omitted.
        fine_inputs: ``prepare_fine_inputs(frames1, frames2)`` made
            beforehand, which full mode then neither rebuilds nor times;
            built and timed here when omitted.

    Raises:
        MisalignedInputs: when a selected keyframe is missing from the joint
            reconstruction or its joint cloud does not match the per-epoch
            cloud point for point.
    """
    if config is None:
        config = PipelineConfig()

    keyframes = (
        fps_temporal(len(frames1), config.k_keyframes, epoch_id=1),
        fps_temporal(len(frames2), config.k_keyframes, epoch_id=2),
    )
    epoch_frames = (frames1, frames2)

    start = time.perf_counter()
    alignments = []
    for kf, frames in zip(keyframes, epoch_frames):
        per_frame = [frames[i - 1] for i in kf.indices]
        joint_kf_cloud = joint.keyframe_cloud(kf)
        # Equal totals can hide per-frame mismatches, so compare each frame.
        for index, cloud in zip(kf.indices, per_frame):
            joint_cloud = joint.clouds[(kf.epoch_id, index)]
            if len(joint_cloud) != len(cloud):
                raise MisalignedInputs(
                    f"epoch {kf.epoch_id} frame {index}: per-epoch cloud has "
                    f"{len(cloud)} points, joint cloud {len(joint_cloud)}"
                )
        epoch_kf_cloud = PointCloud.concatenate(per_frame)
        source, target = build_keyframe_correspondences(epoch_kf_cloud, joint_kf_cloud, kf.epoch_id)
        alignments.append(estimate_epoch_alignment(source, target, epoch_id=kf.epoch_id))
    coarse = compose_relative(alignments[0].transform, alignments[1].transform)
    coarse_elapsed = time.perf_counter() - start

    cloud_stats = {"t1_total": sum(map(len, frames1)), "t2_total": sum(map(len, frames2))}

    fine = None
    fine_elapsed = 0.0
    if config.mode == "full":
        start = time.perf_counter()
        if fine_inputs is None:
            fine_inputs = prepare_fine_inputs(frames1, frames2)
        cloud_stats.update(fine_inputs.cloud_stats)
        fine = fine_stage(fine_inputs.source, fine_inputs.target, coarse)
        fine_elapsed = time.perf_counter() - start

    return RegistrationResult(
        alignment1=alignments[0],
        alignment2=alignments[1],
        coarse_relative=coarse,
        fine=fine,
        final_transform=coarse if fine is None else fine.transform,
        cloud_stats=cloud_stats,
        timings={
            "coarse_s": coarse_elapsed,
            "fine_s": fine_elapsed,
            "registration_s": coarse_elapsed + fine_elapsed,
        },
        config_echo=config.to_dict(),
    )


def register_scene(
    scene,
    config: PipelineConfig,
    joint_sigma: float = 0.0,
    epoch_bias: float = 0.0,
    frame_drift: float = 0.0,
) -> RegistrationResult:
    """Register a synthetic scene using the mock joint-inference oracle.

    The keyword arguments configure the oracle's error model; see
    ``mock_joint_inference``.  What does not depend on the keyframe budget
    is built on the first call that needs it and kept with the scene: the
    all-frames mock joint for each error model and, in full mode, the fine
    stage's inputs.  Neither is in the returned timings.
    """
    from .synthetic import all_frames_keyframes, mock_joint_inference

    frames1, frames2 = scene.epoch_frames(1), scene.epoch_frames(2)
    joint = scene.prepared(
        ("joint", joint_sigma, epoch_bias, frame_drift),
        lambda: mock_joint_inference(
            scene,
            all_frames_keyframes(scene),
            sigma=joint_sigma,
            epoch_bias=epoch_bias,
            frame_drift=frame_drift,
        ),
    )
    fine_inputs = None
    if config.mode == "full":
        fine_inputs = scene.prepared(("fine",), lambda: prepare_fine_inputs(frames1, frames2))
    return register_epochs(frames1, frames2, joint, config, fine_inputs=fine_inputs)


def change_statistics(change_map: ChangeMap) -> dict:
    """JSON-ready summary of a change map."""
    forward = change_map.forward_labels
    backward = change_map.backward_labels
    return {
        "tau": change_map.tau,
        "tau_ratio": change_map.tau_ratio,
        "scene_extent": change_map.scene_extent,
        "n_t1_points": int(len(change_map.forward_scores)),
        "n_t2_points": int(len(change_map.backward_scores)),
        "n_forward_changed": int(forward.sum()),
        "n_backward_changed": int(backward.sum()),
        "changed_fraction": change_map.changed_fraction,
    }


def detect_changes(
    aligned_t1: PointCloud, t2: PointCloud, tau_ratio: float = DEFAULT_TAU_RATIO
) -> tuple:
    """Score, classify and summarize changes between two aligned clouds.

    Returns:
        (ChangeMap, statistics dict).
    """
    change_map = classify_changes(change_scores(aligned_t1, t2), tau_ratio)
    return change_map, change_statistics(change_map)


@dataclass
class RunReport:
    """Accumulating record of one pipeline run.

    All deterministic content serializes under stable keys; wall-clock
    values live exclusively in the ``timing`` section so two runs with the
    same inputs and config produce byte-identical reports once that
    section is dropped.
    """

    config: dict
    coarse: dict = None
    fine: dict = None
    final_transform: dict = None
    cloud_stats: dict = None
    changes: dict = None
    metrics: dict = None
    inputs: dict = None
    timing: dict = None
    format_version: str = FORMAT_VERSION

    @staticmethod
    def from_registration(result: RegistrationResult, inputs: dict = None) -> "RunReport":
        fine = result.fine
        return RunReport(
            config=dict(result.config_echo),
            coarse={
                "epoch1": _alignment_dict(result.alignment1),
                "epoch2": _alignment_dict(result.alignment2),
                "relative": result.coarse_relative.to_dict(),
            },
            fine=None if fine is None else {
                "translation": fine.transform.translation.tolist(),
                "accepted_refinement": bool(fine.accepted_refinement),
                "coarse_median_residual": fine.coarse_median_residual,
                "refined_median_residual": fine.refined_median_residual,
                "n_static": fine.n_static,
            },
            final_transform=result.final_transform.to_dict(),
            cloud_stats=dict(result.cloud_stats),
            inputs=inputs,
            timing=dict(result.timings),
        )

    def record_changes(self, stats: dict, elapsed: float):
        self.changes = dict(stats)
        self.timing = dict(self.timing or {})
        self.timing["detect_s"] = elapsed

    def record_metrics(self, metrics: MetricsReport):
        self.metrics = metrics.to_dict()

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if include_timing or f.name != "timing"
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json_text(self.to_dict(include_timing))

    def write(self, path):
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @staticmethod
    def read(path) -> "RunReport":
        """Load a report written by :meth:`write`.

        Raises:
            SchemaError: naming ``path`` when the file is not a JSON object
                of a supported version, lacks ``config`` or
                ``final_transform``, holds a section that is neither an
                object nor null, or a final transform that is not a Sim(3).
        """
        data = read_json(path)
        present = {key: value for key, value in data.items() if value is not None}
        sections = {f.name: dict for f in fields(RunReport) if f.name != "format_version"}
        required = ("config", "final_transform")
        values = check_fields(present, sections, required, str(path), SchemaError)
        Sim3Transform.from_dict(values["final_transform"], f"{path}: final_transform")
        return RunReport(**values, format_version=data["format_version"])

    def final_sim3(self) -> Sim3Transform:
        return Sim3Transform.from_dict(self.final_transform, "report final_transform")
