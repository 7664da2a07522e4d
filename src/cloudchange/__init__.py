"""Bi-temporal point-cloud registration and 3D change detection.

The pipeline aligns two independently reconstructed, scale-ambiguous point
clouds of the same scene into one metric frame (coarse similarity prior from
keyframe correspondences, then a purified translation-only refinement that
can never degrade the result) and compares the aligned clouds into a 3D
change map.  A deterministic synthetic-scene generator and trajectory-error
metrics support end-to-end verification without any learned model.
"""

from .bundles import FORMAT_VERSION
from .changes import ChangeMap, change_scores, classify_changes, color_ramp_table, colorize
from .cloud import (
    PointCloud,
    SpatialIndex,
    VoxelGrid,
    build_index,
    filter_by_median_confidence,
    lower_median,
    median_confidence_mask,
    robust_extent,
    voxel_downsample_indices,
    voxel_grid_params,
)
from .coarse import (
    EpochAlignment,
    JointReconstruction,
    build_keyframe_correspondences,
    estimate_epoch_alignment,
)
from .errors import (
    CloudChangeError,
    DegenerateInput,
    EmptyCloud,
    EmptyStaticSet,
    InvalidSpec,
    LabelMismatch,
    MisalignedInputs,
    ParseError,
    SchemaError,
    TooFewCorrespondences,
    TooFewPoses,
    UnsupportedPropertyWarning,
)
from .fine import FineResult, PurificationResult, fine_stage, purify, refine_translation
from .geometry import (
    Sim3Transform,
    apply_transform,
    compose_relative,
    rotation_angle_deg,
    umeyama,
)
from .keyframes import KeyframeSet, fps_temporal
from .metrics import MetricsReport, Trajectory, ablation_sweep, ate, rte, transform_error
from .pipeline import PipelineConfig, RegistrationResult, RunReport, register_epochs, register_scene
from .synthetic import BiTemporalScene, SceneSpec, generate_scene, mock_joint_inference

__version__ = "0.1.0"
