"""Fine registration: purified, translation-only refinement with a self-check.

Under the coarse transform, nearest-neighbor distances into the target cloud
separate static background (small distances) from genuine scene changes and
residual noise (large distances).  The static subset is extracted with an
adaptive threshold of ``ALPHA`` times the median distance, and only the
translation is re-estimated from it: a rotation or scale update could convert
small angular errors into large displacements far from the centroid, so both
stay locked at their coarse values.  A final residual self-check accepts the
refined translation only if it strictly lowers the median nearest-neighbor
distance over all points, which makes the stage a no-op in the worst case
rather than a regression.  The source is rotated once for all three steps,
and the result carries the final transform, scale and rotation locked.

Purify needs only the near part of its answer, so it searches within twice
the threshold of a median guessed from a strided sample (see
:meth:`SpatialIndex.query`), and the far points, the most expensive ones,
come back as ``inf``.  It keeps that answer only when the threshold lies
strictly below the bound, with a relative slack for the tree's rounding;
then every ``inf`` point ranks above the median and outside the static set,
so the median, the static set, its neighbors (up to ties at exactly equal
distance, see :class:`SpatialIndex`) and the decision equal those of an
unbounded search.  Otherwise it repeats the query without a bound.

The self-check needs one order statistic of the refined distances, and it
brackets that statistic between two bounds, as Floyd & Rivest (1975) do for
selection, from what purify already holds.  The candidate moves every point
by the step ``delta = |candidate - coarse translation|``, so by the triangle
inequality a point's refined distance lies between its coarse distance minus
``delta`` and its distance to its frozen coarse neighbor.  A point purify
left ``inf`` lies beyond the threshold, so its lower bound is the threshold
minus ``delta``, and it has no upper bound.  With ``k = (n - 1) // 2``, the
k-th smallest lower bound ``L`` and the k-th smallest upper bound ``U``
enclose the refined median.  A point whose upper bound lies below ``L``
ranks below the median, one whose lower bound lies above ``U`` ranks above
it, and only the rest are queried, within ``U``; the median is their answer
of rank ``k`` minus the number of points below.  Each
bound is widened by the slack, relative to the distances and ``delta`` (the
tree's and the distance expression's rounding) and to the largest coordinate
(the rounding of ``scale * R p + t``), so the bracket holds in floating point
too: at exact ties, at zero distances and far from the origin.  ``U`` then
exceeds the refined median by at least that margin, so the bounded query
always answers it, and the median equals that of an unbounded query over
every point.

The band is narrowed first by sampling, as Floyd & Rivest do: every 16th
band point's distance, clamped into ``[L, U]``, gives ``L'`` and ``U'`` a few
standard deviations of rank around the median's expected rank.  Points whose
upper bound lies below ``L'`` rank below the median, and the band points that
can lie within ``U'`` are queried within ``U'`` plus the margin; their answer
of rank ``k`` minus those below is the median if it lies in ``[L', U']``, and
otherwise the whole band is queried.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, SpatialIndex, build_index, lower_median, pair_distances
from .errors import EmptyCloud, EmptyStaticSet
from .geometry import Sim3Transform, rotate

MIN_STATIC_POINTS = 100
# The static-set threshold is ALPHA times the median distance.  The bounded
# searches rely on ALPHA >= 1: the median then lies below any bound that the
# threshold lies below.
ALPHA = 3.0

# Purify guesses its median from every 64th aligned point, which any guess
# leaves exact (3-6 -> 1.2-1.9 ms at 45k points against every 16th).
_SAMPLE_STRIDE = 64
# The self-check narrows its bracket to this many standard deviations of rank
# around the median's expected rank in its band sample (read at call time).
_BRACKET_SIGMAS = 3.0
# Relative margin between a bounded query's bound and the largest distance it
# must answer exactly, and by which the self-check widens its bracket; far
# above the few-ulp rounding of the tree, the distances and the alignment.
_BOUND_SLACK = 1e-9


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
        static_mask: (n,) True where distance < ALPHA * median_distance,
            the threshold.
        median_distance: lower-midpoint median of the distances.
    """

    distances: np.ndarray
    nn_indices: np.ndarray
    static_mask: np.ndarray
    median_distance: float

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
    ``refined_median_residual < coarse_median_residual``; ``transform`` is
    the coarse one with the candidate translation when it is True, else the
    coarse one itself.
    """

    transform: Sim3Transform
    accepted_refinement: bool
    coarse_median_residual: float
    refined_median_residual: float
    n_static: int

    def __post_init__(self):
        lowered = self.refined_median_residual < self.coarse_median_residual
        if self.accepted_refinement and not lowered:
            raise ValueError("an accepted refinement must strictly lower the median residual")


def purify(aligned_source: PointCloud, target_index: SpatialIndex) -> PurificationResult:
    """Split an aligned cloud into static background and likely changes.

    A point is static when its nearest-neighbor distance into the target is
    strictly below ``ALPHA`` times the median distance; the median adapts the
    threshold to the scene's own residual level.

    Raises:
        EmptyCloud: on an empty source cloud.
    """
    if len(aligned_source) == 0:
        raise EmptyCloud("cannot purify an empty cloud")
    points = aligned_source.points
    guess, _ = target_index.query(points[::_SAMPLE_STRIDE])
    bound = 2.0 * ALPHA * lower_median(guess)
    distances, nn_idx = target_index.query(points, bound)
    median = lower_median(distances)
    if not ALPHA * median * (1.0 + _BOUND_SLACK) < bound:
        distances, nn_idx = target_index.query(points)
        median = lower_median(distances)
    return PurificationResult(
        distances=distances,
        nn_indices=nn_idx,
        static_mask=distances < ALPHA * median,
        median_distance=median,
    )


def refine_translation(
    rotated: np.ndarray, target_index: SpatialIndex, purification: PurificationResult
) -> np.ndarray:
    """Replacement translation from the purified static correspondences.

    Averages target_nn - s*R*p over the static set, from ``rotated`` = s*R*p
    and the nearest neighbors frozen in ``purification`` (single-shot).

    Raises:
        EmptyStaticSet: if the static mask selects nothing.
    """
    mask = purification.static_mask
    if not mask.any():
        raise EmptyStaticSet("no static correspondences to refine from")
    matched = target_index.points.take(purification.nn_indices.compress(mask), axis=0)
    return np.mean(matched - np.compress(mask, rotated, axis=0), axis=0)


def _refined_median(
    index: SpatialIndex, shifted: np.ndarray, purification: PurificationResult, step: float
) -> float:
    """Lower median of the nearest-neighbor distances of ``shifted`` into
    ``index``, as an unbounded query over every point gives it.

    ``shifted`` is the purified cloud moved by a translation update of
    length ``step``; only the points the bracket cannot place are queried
    (see the module docstring).
    """
    k = (len(shifted) - 1) // 2
    # Rounding of the alignment moves a point by a few ulps of its largest
    # coordinate; tiny keeps the margin positive at the origin.
    extent = max(float(shifted.max()), -float(shifted.min()))
    reach = _BOUND_SLACK * (extent + step) + np.finfo(np.float64).tiny
    n_target = len(index.points)
    found = purification.nn_indices < n_target
    nearest = np.minimum(purification.nn_indices, n_target - 1)
    upper = pair_distances(shifted, index.points.take(nearest, axis=0))
    upper += _BOUND_SLACK * upper + reach
    upper[~found] = np.inf
    # Purify leaves a point unfound only beyond its threshold.
    before = np.where(found, purification.distances, ALPHA * purification.median_distance)
    lower = before - step - (_BOUND_SLACK * (before + step) + reach)
    low = np.partition(lower, k)[k]
    high = np.partition(upper, k)[k]
    below = upper < low
    band = ~below & (lower <= high)
    rank = k - int(below.sum())
    # The band holds the point of upper bound high, so it is never empty.
    band_rows = np.flatnonzero(band)
    # Sampled bounds stay in [low, high], so that points outside the band keep their places.
    sample, _ = index.query(shifted.take(band_rows[::16], axis=0), high)
    bracket = np.r_[low, np.clip(np.sort(sample), low, high), high]
    centre = 1 + rank * len(sample) / len(band_rows)
    spread = _BRACKET_SIGMAS * np.sqrt(len(sample))
    low2 = bracket[max(0, int(np.floor(centre - spread)))]
    high2 = bracket[min(len(bracket) - 1, int(np.ceil(centre + spread)))]
    sure = upper < low2
    rest = band & ~sure & (lower <= high2)
    bound = high2 * (1.0 + _BOUND_SLACK) + reach
    distances, _ = index.query(np.compress(rest, shifted, axis=0), bound)
    rank2 = k - int(sure.sum())
    median = np.partition(distances, rank2)[rank2] if 0 <= rank2 < len(distances) else np.inf
    if low2 <= median <= high2:
        return float(median)
    distances, _ = index.query(shifted.take(band_rows, axis=0), high)
    return float(np.partition(distances, rank)[rank])


def fine_stage(source: PointCloud, target: PointCloud, coarse: Sim3Transform) -> FineResult:
    """Run the full translation refinement on downsampled epoch clouds.

    Aligns ``source`` with the coarse transform and purifies the static set.
    With at least ``MIN_STATIC_POINTS`` static points (read at call time)
    the candidate translation is refined and self-checked (median
    nearest-neighbor residual over all points); otherwise the candidate is
    the coarse translation with the coarse median.  It is accepted only
    when its median lies strictly below the coarse one.
    Scale and rotation are never modified: the result's ``transform`` is the
    coarse one with the accepted translation, or ``coarse`` itself.

    The clouds arrive already filtered and downsampled (see
    ``pipeline.prepare_fine_inputs``); the index over ``target`` is built
    here, on every call, so it is part of the caller's fine-stage timing.

    Raises:
        EmptyCloud: on empty inputs.
    """
    if len(source) == 0 or len(target) == 0:
        raise EmptyCloud("fine stage requires non-empty clouds")
    index = build_index(target)
    # One rotation; adding a translation is Sim3Transform.apply's arithmetic, so
    # the medians compared here reproduce bit for bit from the returned transform.
    rotated = coarse.scale * rotate(source.points, coarse.rotation)
    purification = purify(source.with_points(rotated + coarse.translation), index)
    n_static = purification.n_static
    coarse_median = purification.median_distance

    candidate, refined_median = coarse.translation, coarse_median
    if n_static >= MIN_STATIC_POINTS:
        candidate = refine_translation(rotated, index, purification)
        step = float(np.linalg.norm(candidate - coarse.translation))
        refined_median = _refined_median(index, rotated + candidate, purification, step)

    accepted = refined_median < coarse_median
    return FineResult(
        transform=Sim3Transform(coarse.scale, coarse.rotation, candidate) if accepted else coarse,
        accepted_refinement=accepted,
        coarse_median_residual=coarse_median,
        refined_median_residual=refined_median,
        n_static=n_static,
    )
