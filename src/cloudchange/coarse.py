"""Coarse registration: per-epoch similarity fits against a joint reconstruction.

Each epoch's keyframe cloud exists in two forms: the epoch's own frame and a
joint reconstruction that places the keyframes of both epochs in one shared
metric frame.  Because the two forms are pixel-aligned, they provide dense
correspondences for a closed-form similarity fit per epoch; composing the two
per-epoch fits yields the relative transform that carries epoch 1 directly
into epoch 2's frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, median_confidence_mask
from .errors import MisalignedInputs, TooFewCorrespondences
from .geometry import Sim3Transform, umeyama
from .keyframes import KeyframeSet

# Correspondence pairs kept per epoch fit; more are subsampled to this many.
CORRESPONDENCE_CAP = 5000


@dataclass(frozen=True)
class JointReconstruction:
    """Keyframe clouds expressed in one shared frame.

    Attributes:
        clouds: mapping (epoch_id, frame_index) -> PointCloud in the shared
            frame, pixel-aligned with the per-epoch cloud of that keyframe.
    """

    clouds: dict

    def keyframe_cloud(self, keyframes: KeyframeSet) -> PointCloud:
        """Concatenated shared-frame cloud for one epoch's keyframes."""
        missing = [i for i in keyframes.indices if (keyframes.epoch_id, i) not in self.clouds]
        if missing:
            raise MisalignedInputs(
                f"joint reconstruction lacks epoch {keyframes.epoch_id} frames {missing}"
            )
        return PointCloud.concatenate(
            [self.clouds[(keyframes.epoch_id, i)] for i in keyframes.indices]
        )


@dataclass(frozen=True)
class EpochAlignment:
    """Similarity transform from one epoch's frame into the joint frame."""

    epoch_id: int
    transform: Sim3Transform
    n_correspondences: int
    residual_rms: float

    def __post_init__(self):
        if self.n_correspondences < 3:
            raise ValueError("an alignment needs at least 3 correspondences")


def build_keyframe_correspondences(
    per_epoch_kf_cloud: PointCloud,
    joint_kf_cloud: PointCloud,
    epoch_id: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Paired (source, target) points for epoch ``epoch_id``'s similarity fit.

    The clouds must be pixel-aligned (same keyframes, same pixel order).
    Pairs whose per-epoch depth confidence does not exceed the median are
    dropped; if more than ``CORRESPONDENCE_CAP`` pairs remain they are
    uniformly subsampled to exactly that many, preserving the pairing, by a
    generator seeded with ``[0, epoch_id]``.

    Raises:
        MisalignedInputs: if the clouds have different lengths.
        TooFewCorrespondences: naming the epoch, if its keyframes hold fewer
            than 3 points or fewer than 3 pairs survive.
    """
    if len(per_epoch_kf_cloud) != len(joint_kf_cloud):
        raise MisalignedInputs(
            f"per-epoch cloud has {len(per_epoch_kf_cloud)} points but joint cloud "
            f"has {len(joint_kf_cloud)}; inputs must be pixel-aligned"
        )
    if (n := len(per_epoch_kf_cloud)) < 3:
        raise TooFewCorrespondences(
            f"epoch {epoch_id}: its keyframes hold {n} points, a fit needs 3 correspondences"
        )
    mask = median_confidence_mask(per_epoch_kf_cloud.confidence)
    kept = np.nonzero(mask)[0]
    if kept.size > CORRESPONDENCE_CAP:
        rng = np.random.default_rng([0, epoch_id])
        kept = np.sort(rng.choice(kept, size=CORRESPONDENCE_CAP, replace=False))
    if kept.size < 3:
        raise TooFewCorrespondences(
            f"epoch {epoch_id}: only {kept.size} correspondences survived filtering"
        )
    return per_epoch_kf_cloud.points[kept], joint_kf_cloud.points[kept]


def estimate_epoch_alignment(
    source: np.ndarray, target: np.ndarray, epoch_id: int = 1
) -> EpochAlignment:
    """Closed-form similarity fit for one epoch's correspondences."""
    transform = umeyama(source, target)
    residual = transform.apply(source) - np.asarray(target, dtype=np.float64)
    rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    return EpochAlignment(
        epoch_id=epoch_id,
        transform=transform,
        n_correspondences=len(source),
        residual_rms=rms,
    )

