"""Fine registration: purified, translation-only refinement with a self-check.

Under the coarse transform, nearest-neighbor distances into the target cloud
separate static background (small distances) from genuine scene changes and
residual noise (large distances).  The static subset is extracted with an
adaptive threshold of alpha times the median distance, and only the
translation is re-estimated from it: a rotation or scale update could convert
small angular errors into large displacements far from the centroid, so both
stay locked at their coarse values.  A final residual self-check accepts the
refined translation only if it strictly lowers the median nearest-neighbor
distance over all points, which makes the stage a no-op in the worst case
rather than a regression.

Both full-cloud queries need only the near part of the answer, so they search
within a bound (see :meth:`SpatialIndex.query`) and the far points, the most
expensive ones, come back as ``inf``.  Purify bounds its search at twice
alpha times a median guessed from a strided sample; the self-check bounds it
at the coarse median plus the length of the translation update, which by the
triangle inequality no refined median exceeds.  Each result is kept only when
the median (and purify's threshold) lies strictly below the bound, with a
relative slack for the tree's rounding; then every ``inf`` point ranks above
the median and outside the static set, so the medians, the static set, its
neighbors (up to ties at exactly equal distance, see :class:`SpatialIndex`)
and the decision equal those of an unbounded search.  Otherwise the query is
repeated without a bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, SpatialIndex, build_index, lower_median
from .errors import EmptyCloud, EmptyStaticSet, check_non_negative
from .geometry import Sim3Transform

MIN_STATIC_POINTS = 100

# Purify guesses its median from every 16th aligned point.
_SAMPLE_STRIDE = 16
# Relative margin between a bounded query's bound and the largest distance it
# must answer exactly; far above the tree's few-ulp rounding of the bound.
_BOUND_SLACK = 1e-9


def _below_bound(value: float, bound: float) -> bool:
    """True when ``value`` lies below ``bound`` by more than the rounding slack."""
    return value * (1.0 + _BOUND_SLACK) < bound


@dataclass(frozen=True)
class PurificationResult:
    """Static-background extraction under the coarse alignment.

    Attributes:
        distances: (n,) nearest-neighbor distance of each aligned source
            point into the target cloud, in target-frame units; ``inf`` for
            points beyond the search bound, which lies above the threshold
            and the median.
        nn_indices: (n,) index of each point's nearest target point, frozen
            here so the translation refinement reuses the same assignments;
            ``len(target)`` for the points beyond the search bound.
        static_mask: (n,) True where distance < threshold.
        median_distance: lower-midpoint median of the distances.
        threshold: alpha * median_distance.
        alpha: the threshold multiplier used.
    """

    distances: np.ndarray
    nn_indices: np.ndarray
    static_mask: np.ndarray
    median_distance: float
    threshold: float
    alpha: float

    @property
    def n_static(self) -> int:
        return int(self.static_mask.sum())


@dataclass(frozen=True)
class FineResult:
    """Outcome of the translation refinement.

    ``refined_median_residual`` is the median residual of the candidate
    translation, whether or not it was accepted.  When too few static points
    survive no candidate is computed and it equals ``coarse_median_residual``;
    after a self-check rejection it is the rejected candidate's median, which
    is at least the coarse one.  ``accepted_refinement`` is exactly
    ``refined_median_residual < coarse_median_residual``, and
    ``translation`` is the coarse translation whenever it is False.
    """

    translation: np.ndarray
    accepted_refinement: bool
    coarse_median_residual: float
    refined_median_residual: float
    n_static: int

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.translation, dtype=np.float64)).reshape(3)
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)
        if self.accepted_refinement and not (
            self.refined_median_residual < self.coarse_median_residual
        ):
            raise ValueError("an accepted refinement must strictly lower the median residual")


def purify(
    aligned_source: PointCloud, target_index: SpatialIndex, alpha: float
) -> PurificationResult:
    """Split an aligned cloud into static background and likely changes.

    A point is static when its nearest-neighbor distance into the target is
    strictly below alpha times the median distance; the median adapts the
    threshold to the scene's own residual level.

    Raises:
        ValueError: if ``alpha`` is NaN, infinite or negative.
        EmptyCloud: on an empty source cloud.
    """
    check_non_negative("alpha", alpha)
    if len(aligned_source) == 0:
        raise EmptyCloud("cannot purify an empty cloud")
    points = aligned_source.points
    guess, _ = target_index.query(points[::_SAMPLE_STRIDE])
    bound = 2.0 * alpha * lower_median(guess)
    distances, nn_idx = target_index.query(points, bound)
    median = lower_median(distances)
    threshold = alpha * median
    if not (_below_bound(median, bound) and _below_bound(threshold, bound)):
        distances, nn_idx = target_index.query(points)
        median = lower_median(distances)
        threshold = alpha * median
    return PurificationResult(
        distances=distances,
        nn_indices=nn_idx,
        static_mask=distances < threshold,
        median_distance=median,
        threshold=threshold,
        alpha=alpha,
    )


def refine_translation(
    source: PointCloud,
    target_index: SpatialIndex,
    coarse: Sim3Transform,
    purification: PurificationResult,
) -> np.ndarray:
    """Replacement translation from the purified static correspondences.

    Averages target_nn - s*R*p over the static set, reusing the nearest
    neighbors frozen in ``purification`` (single-shot, not iterative).

    Raises:
        EmptyStaticSet: if the static mask selects nothing.
    """
    mask = purification.static_mask
    if not mask.any():
        raise EmptyStaticSet("no static correspondences to refine from")
    rotated = coarse.scale * (source.points[mask] @ coarse.rotation.T)
    matched = target_index.points[purification.nn_indices[mask]]
    return np.mean(matched - rotated, axis=0)


def fine_stage(
    source: PointCloud,
    target: PointCloud,
    coarse: Sim3Transform,
    alpha: float,
) -> FineResult:
    """Run the full translation refinement on downsampled epoch clouds.

    Aligns ``source`` with the coarse transform and purifies the static set
    with threshold multiplier ``alpha``.  With at least ``MIN_STATIC_POINTS``
    static points (read at call time) the candidate translation is refined
    and self-checked (median nearest-neighbor residual over all points);
    otherwise the candidate is the coarse translation with the coarse median.
    It is accepted only when its median lies strictly below the coarse one.
    Scale and rotation are never modified.

    Raises:
        EmptyCloud: on empty inputs.
    """
    if len(source) == 0 or len(target) == 0:
        raise EmptyCloud("fine stage requires non-empty clouds")
    index = build_index(target)
    # Both alignments go through Sim3Transform.apply so the medians compared
    # here reproduce bit for bit when recomputed from the returned transform.
    aligned = coarse.apply(source.points)
    purification = purify(source.with_points(aligned), index, alpha)
    n_static = purification.n_static
    coarse_median = purification.median_distance

    candidate, refined_median = coarse.translation, coarse_median
    if n_static >= MIN_STATIC_POINTS:
        candidate = refine_translation(source, index, coarse, purification)
        shifted = Sim3Transform(coarse.scale, coarse.rotation, candidate).apply(source.points)
        # |d_refined(p) - d_coarse(p)| <= |candidate - coarse.translation|.
        bound = coarse_median + float(np.linalg.norm(candidate - coarse.translation))
        refined_distances, _ = index.query(shifted, bound)
        refined_median = lower_median(refined_distances)
        if not _below_bound(refined_median, bound):
            refined_distances, _ = index.query(shifted)
            refined_median = lower_median(refined_distances)

    accepted = refined_median < coarse_median
    return FineResult(
        translation=candidate if accepted else coarse.translation,
        accepted_refinement=accepted,
        coarse_median_residual=coarse_median,
        refined_median_residual=refined_median,
        n_static=n_static,
    )
