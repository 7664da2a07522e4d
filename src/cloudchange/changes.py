"""Bidirectional change scoring, thresholding, and heatmap coloring.

Once both epochs live in one frame, the change score of a point is its
nearest-neighbor distance into the other epoch's cloud, computed in both
directions so that appeared geometry (backward) and disappeared geometry
(forward) are each visible.  Scores above a threshold proportional to the
scene extent are labeled as changes; the reported change set is the union of
both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, SpatialIndex, build_index, robust_extent
from .errors import EmptyCloud, check_non_negative

DEFAULT_TAU_RATIO = 0.01

# Color ramp anchors over the 256-entry lookup table: blue at 0, green at 85,
# yellow at 170, red at 255, linearly interpolated between anchors.
_RAMP_ANCHORS = ((0, (0, 0, 255)), (85, (0, 255, 0)), (170, (255, 255, 0)), (255, (255, 0, 0)))


@dataclass(frozen=True)
class ChangeMap:
    """Per-point change scores and labels for both directions, as built by
    :func:`classify_changes`.

    Attributes:
        forward_scores: (n1,) nearest-neighbor distances of the aligned
            first-epoch points into the second epoch, in target-frame units.
        backward_scores: (n2,) the symmetric distances for the second epoch.
        scene_extent: robust extent of the union of both clouds, used to
            scale the threshold.
        forward_labels / backward_labels: boolean change flags; a point is
            changed when score > tau.
        tau: absolute threshold (tau_ratio * scene_extent).
        tau_ratio: the relative threshold the labels were computed with.
    """

    forward_scores: np.ndarray
    backward_scores: np.ndarray
    scene_extent: float
    forward_labels: np.ndarray
    backward_labels: np.ndarray
    tau: float
    tau_ratio: float

    @property
    def n_changed(self) -> int:
        """Total labeled changes across both directions."""
        return int(self.forward_labels.sum()) + int(self.backward_labels.sum())

    @property
    def changed_fraction(self) -> float:
        total = len(self.forward_scores) + len(self.backward_scores)
        return self.n_changed / total


def change_scores(aligned_t1: PointCloud, t2: PointCloud) -> tuple:
    """Bidirectional nearest-neighbor change scores for two aligned clouds:
    ``(forward, backward, scene_extent)``, the (n1,) distances of ``aligned_t1``
    into ``t2``, the (n2,) ones of ``t2`` into it, and the robust extent of both.

    Each direction queries its points in the other cloud's leaf order
    (:attr:`SpatialIndex.order`), which makes the exact search cheaper; an
    answer depends only on the tree and the point, so the scores are those
    of querying in input order, bit for bit.

    Raises:
        EmptyCloud: if either cloud is empty.
    """
    if len(aligned_t1) == 0 or len(t2) == 0:
        raise EmptyCloud("change scoring requires two non-empty clouds")
    index_t2 = build_index(t2)
    index_t1 = build_index(aligned_t1)
    forward = _distances_in_order(index_t2, aligned_t1.points, index_t1.order)
    backward = _distances_in_order(index_t1, t2.points, index_t2.order)
    extent = robust_extent(np.concatenate([aligned_t1.points, t2.points]))
    return forward, backward, extent


def _distances_in_order(index: SpatialIndex, points: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Distances of ``points`` into ``index``, queried in ``order`` dealt into two
    runs, in input order.  Each worker takes one contiguous chunk of a batch; so
    dealt, each sweeps the whole scene, not a half that may hold every change."""
    order = np.concatenate([order[0::2], order[1::2]])
    distances = np.empty(len(points))
    distances[order] = index.query(points.take(order, axis=0))[0]
    return distances


def classify_changes(scores: tuple, tau_ratio: float) -> ChangeMap:
    """The change map of :func:`change_scores`' ``scores``: a point is changed
    when its score strictly exceeds tau, ``tau_ratio`` times the scene extent.

    Raises:
        ValueError: if ``tau_ratio`` is not a finite number >= 0, or if
            tau overflows to infinity.
    """
    forward, backward, extent = scores
    tau_ratio = check_non_negative("tau_ratio", tau_ratio)
    tau = tau_ratio * extent
    if not np.isfinite(tau):
        raise ValueError(f"tau_ratio {tau_ratio} times the scene extent {extent} is not finite")
    return ChangeMap(forward, backward, extent, forward > tau, backward > tau, tau, tau_ratio)


def color_ramp_table() -> np.ndarray:
    """The fixed 256-entry blue-green-yellow-red lookup table.

    Entry k linearly interpolates between the anchors blue(0), green(85),
    yellow(170), red(255); channel values round half to even.  The table is
    a constant of the file format, so colored outputs are byte-reproducible.
    """
    table = np.zeros((256, 3), dtype=np.uint8)
    for (k0, c0), (k1, c1) in zip(_RAMP_ANCHORS[:-1], _RAMP_ANCHORS[1:]):
        ks = np.arange(k0, k1 + 1)
        frac = (ks - k0) / (k1 - k0)
        for ch in range(3):
            table[ks, ch] = np.rint(c0[ch] + frac * (c1[ch] - c0[ch])).astype(np.uint8)
    return table


def _scores_to_colors(scores: np.ndarray, tau: float, table: np.ndarray) -> np.ndarray:
    if tau > 0.0:
        normalized = np.clip(scores / (4.0 * tau), 0.0, 1.0)
    else:
        normalized = (np.asarray(scores) > 0.0).astype(np.float64)
    return table[np.rint(normalized * 255.0).astype(np.intp)]


def colorize(
    change_map: ChangeMap, aligned_t1: PointCloud, t2: PointCloud
) -> tuple[PointCloud, PointCloud]:
    """Color both clouds by change magnitude.

    Score 0 maps to pure blue and scores at or above 4*tau to pure red,
    through the fixed lookup table of :func:`color_ramp_table`.

    Returns:
        (colored aligned_t1, colored t2).
    """
    table = color_ramp_table()
    colored_t1 = PointCloud(
        aligned_t1.points,
        aligned_t1.confidence,
        color=_scores_to_colors(change_map.forward_scores, change_map.tau, table),
    )
    colored_t2 = PointCloud(
        t2.points,
        t2.confidence,
        color=_scores_to_colors(change_map.backward_scores, change_map.tau, table),
    )
    return colored_t1, colored_t2
