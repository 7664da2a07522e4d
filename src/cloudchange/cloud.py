"""Point-cloud container, confidence filtering, voxel downsampling and NN search.

A :class:`PointCloud` is a set of parallel arrays (positions, per-point
confidence, optional color) that is immutable after construction so
instances can be shared freely across workers; every coordinate and
confidence must be finite.  A cloud knows nothing of the frames it came
from: an epoch is a list of per-frame clouds.  Spatial queries go through
:class:`SpatialIndex`, a thin wrapper around a sliding-midpoint KD-tree
that answers with the exact Euclidean nearest neighbor, optionally only for
query points whose neighbor lies within a search bound.  The clouds
are surface samples, and many queries land off those surfaces (changed
points), which sliding-midpoint splits answer far faster than median splits.
The tree's leaves hold 32 points; an index exposes its leaf order to batch queries in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud

# Points per KD-tree leaf (scipy's default: 16).  On detect's two leaf-order
# queries at 100k points, 32 took 7 % less time than 16 (faster in 43 of 56
# interleaved pairs) and 64 took 2 % less.
_LEAF_SIZE = 32

# Voxels across the robust extent of an adaptive grid.
GRID_RESOLUTION = 200


def lower_median(values) -> float:
    """Median with the lower-midpoint convention for even counts.

    For odd n this is the ordinary middle element; for even n it is the
    smaller of the two middle elements (never an average), so the result
    is always one of the input values.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("median of empty sequence")
    k = (v.size - 1) // 2
    return float(np.partition(v, k)[k])


def pair_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical distances of paired (n, 3) rows: ``sqrt((dx² + dy²) + dz²)``."""
    squares = a - b
    squares *= squares
    return np.sqrt(squares[:, 0] + squares[:, 1] + squares[:, 2])


def robust_extent(points) -> float:
    """Outlier-resistant spatial extent of a point set.

    Per axis, the spread between the 1st and 99th coordinate percentiles;
    the extent is the maximum spread over the three axes.  Stray points far
    outside the bulk of the cloud therefore barely move the value.
    """
    lo, hi = _percentile_box(points)
    return float(np.max(hi - lo))


def _percentile_box(points) -> np.ndarray:
    """Rows: ``np.percentile(points, [1, 99], axis=0)`` bit for bit.  numpy's
    two neighbouring order statistics come from the tails beyond the 3rd /
    97th percentile of every 64th row, and ``np.quantile`` interpolates them
    as numpy would: 1.9-2.8 -> 1.3 ms at 55k rows.  A NaN, which no tail
    holds, or a tail too short for its ranks falls back to ``np.percentile``."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if points.ndim != 2 or n == 0 or np.isnan(points).any():
        return np.percentile(points, [1.0, 99.0], axis=0)
    virtual = np.array([(n - 1) * 0.01, (n - 1) * 0.99])  # numpy's linear method
    ranks = virtual.astype(np.int64)
    pairs = np.empty((2, 2, points.shape[1]))  # (percentile, rank, axis)
    for axis, column in enumerate(points.T):
        cuts = np.sort(column[::64])
        edge = len(cuts) * 3 // 100
        tails = (column[column <= cuts[edge]], column[column >= cuts[-1 - edge]])
        at = (ranks[0], ranks[1] - n + len(tails[1]))  # the ranks inside each tail
        if not (at[0] + 1 < len(tails[0]) and at[1] >= 0):
            return np.percentile(points, [1.0, 99.0], axis=0)
        for row, tail in enumerate(tails):
            pairs[row, :, axis] = np.partition(tail, (at[row], at[row] + 1))[at[row] : at[row] + 2]
    return np.stack([np.quantile(pairs[row], virtual[row] - ranks[row], axis=0) for row in (0, 1)])


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointCloud:
    """Immutable 3D point set with per-point confidence.

    Attributes:
        points: (n, 3) finite float64 positions in scene units.
        confidence: (n,) float64 values in [0, 1]; defaults to all ones.
        color: optional (n, 3) uint8 RGB.

    A C-contiguous input of the stored dtype is kept without a copy and made
    read-only in place, so large clouds are never copied; pass a copy of an
    array you will still write to.
    """

    points: np.ndarray
    confidence: np.ndarray = None
    color: np.ndarray = None

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            bad = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise ValueError(f"non-finite coordinates {pts[bad].tolist()} at point {bad}")
        n = pts.shape[0]
        conf = self.confidence
        if conf is None:
            conf = np.ones(n, dtype=np.float64)
        conf = np.ascontiguousarray(np.asarray(conf, dtype=np.float64))
        if conf.shape != (n,):
            raise ValueError(f"confidence must have shape ({n},), got {conf.shape}")
        if n and not (conf.min() >= 0.0 and conf.max() <= 1.0):
            bad = int(np.argmin((conf >= 0.0) & (conf <= 1.0)))
            raise ValueError(f"confidence {conf[bad]} outside [0, 1] at point {bad}")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "confidence", _readonly(conf))
        if self.color is not None:
            col = np.ascontiguousarray(np.asarray(self.color, dtype=np.uint8))
            if col.shape != (n, 3):
                raise ValueError(f"color must have shape ({n}, 3), got {col.shape}")
            object.__setattr__(self, "color", _readonly(col))

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, indices) -> "PointCloud":
        """New cloud keeping the rows in ``indices``: a slice gives views, a mask or
        index array copies by ``compress``/``take`` (faster than ``a[idx]``)."""
        if isinstance(indices, slice):
            rows = itemgetter(indices)
        elif (idx := np.asarray(indices)).dtype != bool:
            rows = partial(np.take, indices=idx, axis=0)
        elif idx.shape == (len(self),):  # compress would silently truncate a short mask
            rows = partial(np.compress, idx, axis=0)
        else:
            raise IndexError(f"boolean mask of shape {idx.shape} for {len(self)} points")
        color = None if self.color is None else rows(self.color)
        return PointCloud(rows(self.points), rows(self.confidence), color)

    def with_points(self, points: np.ndarray) -> "PointCloud":
        """New cloud with replaced positions, all other attributes preserved."""
        return PointCloud(points=points, confidence=self.confidence, color=self.color)

    @staticmethod
    def concatenate(clouds: list["PointCloud"]) -> "PointCloud":
        """Stack several clouds into one, preserving order.

        Color is kept only if every input carries it.
        """
        if not clouds:
            raise EmptyCloud("cannot concatenate zero clouds")
        pts = np.concatenate([c.points for c in clouds])
        conf = np.concatenate([c.confidence for c in clouds])
        color = None
        if all(c.color is not None for c in clouds):
            color = np.concatenate([c.color for c in clouds])
        return PointCloud(pts, conf, color)


class SpatialIndex:
    """Exact nearest-neighbor index over a cloud's points.

    The tree is scipy's ``cKDTree`` with sliding-midpoint splits
    (``balanced_tree=False``, Maneewongvatana & Mount 1999) and cells that
    keep their split bounds instead of shrinking to the data
    (``compact_nodes=False``).  The indexed clouds are samples of surfaces,
    and detection queries every changed point, far from all of them; on
    scipy's default median-split compact tree such off-surface queries cost
    many times an on-surface one.  Leaves hold ``_LEAF_SIZE`` points.  The
    tree shape changes only the search cost, never the answer.  Queries
    batched in :attr:`order` (nearby rows adjacent) share tree paths; the
    order of a batch changes no distance and no index.

    Immutable after construction.  Distances are recomputed from the matched
    coordinates with one canonical expression so that an exhaustive scan
    using the same expression reproduces them bit for bit, bounded search or
    not.  Among neighbors at exactly the same distance the tree may return
    any one, and a search bound can change which.
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self._points = cloud.points
        # Surface samples: off-surface queries are slow on median-split
        # compact trees, so split at sliding midpoints and keep full cells.
        self._tree = cKDTree(cloud.points, _LEAF_SIZE, compact_nodes=False, balanced_tree=False)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def order(self) -> np.ndarray:
        """The indexed rows in leaf order: a read-only view of the tree's permutation."""
        return _readonly(self._tree.indices.view())

    def query(self, query_points, upper_bound: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
        """Exact nearest neighbor of each query point, searched within a bound.

        With the default unbounded search every point gets its nearest
        neighbor.  A finite ``upper_bound`` lets the tree prune every cell
        farther away (the bounds-overlap-ball test of Friedman, Bentley &
        Finkel, 1977): a point whose nearest neighbor lies at or beyond the
        bound gets distance ``inf`` and index ``len(self.points)``, the
        tree's own sentinel.  Every finite answer is the exact one and lies
        below the bound, and a neighbor closer than the bound by more than
        the tree's rounding (a few ulps) is always found.

        Args:
            query_points: (m, 3) array.

        Returns:
            (distances, indices): both (m,) arrays, ordered like the queries.

        Raises:
            ValueError: naming the shape of ``query_points`` if it is not (m, 3).
        """
        q = np.asarray(query_points, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != 3:
            raise ValueError(f"query points must have shape (m, 3), got {q.shape}")
        tree_bound = upper_bound
        if 0.0 < upper_bound and upper_bound * upper_bound < np.finfo(np.float64).tiny:
            # The tree compares squared distances; a squared bound this small
            # loses its precision, so search unbounded and cut below instead.
            tree_bound = np.inf
        _, idx = self._tree.query(q, k=1, distance_upper_bound=tree_bound, workers=-1)
        idx = np.asarray(idx, dtype=np.int64)
        n = len(self._points)
        found = idx < n
        dist = pair_distances(q, self.points.take(np.where(found, idx, 0), axis=0))
        if upper_bound != np.inf:
            # The canonical distance may round up to the bound where the tree's did not.
            found &= dist < upper_bound
            dist[~found] = np.inf
            idx[~found] = n
        return dist, idx


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build an exact nearest-neighbor index over ``cloud``."""
    return SpatialIndex(cloud)


def median_confidence_mask(confidence) -> np.ndarray:
    """Boolean mask of points whose confidence strictly exceeds the median.

    Uses the lower-midpoint median.  If the strict comparison would keep
    nothing (all values equal, or the maximum coincides with the median),
    the comparison falls back to >= so at least one point always survives;
    in the all-equal case this returns the full cloud.
    """
    conf = np.asarray(confidence, dtype=np.float64)
    med = lower_median(conf)
    mask = conf > med
    if not mask.any():
        mask = conf >= med
    return mask


def filter_by_median_confidence(cloud: PointCloud) -> PointCloud:
    """Keep the points whose confidence strictly exceeds the median confidence.

    Raises:
        EmptyCloud: if the input has no points.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot filter an empty cloud")
    mask = median_confidence_mask(cloud.confidence)
    if mask.all():
        return cloud
    return cloud.select(mask)


@dataclass(frozen=True)
class VoxelGrid:
    """Fully pinned voxel binning: edge length, lower corner, voxel counts.

    ``dims`` bounds the index range per axis; points that fall outside are
    clamped into the nearest boundary voxel rather than dropped.  A zero
    ``voxel_size`` collapses the grid to a single voxel.
    """

    voxel_size: float
    origin: np.ndarray
    dims: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", _readonly(np.asarray(self.origin, dtype=np.float64)))
        object.__setattr__(self, "dims", _readonly(np.asarray(self.dims, dtype=np.int64)))

    def keys(self, points: np.ndarray) -> np.ndarray:
        """Linearized voxel id for each point."""
        if self.voxel_size <= 0.0:
            return np.zeros(len(points), dtype=np.int64)
        # Clamp before the cast: a quotient beyond the int64 range (or inf)
        # would cast to INT64_MIN and land in voxel 0.  In place, because
        # np.clip takes about a fifth longer here.
        with np.errstate(over="ignore"):
            idx3 = np.floor((points - self.origin) / self.voxel_size)
        np.maximum(idx3, 0.0, out=idx3)
        idx3 = np.minimum(idx3, self.dims - 1, out=idx3).astype(np.int64)
        return (idx3[:, 0] * self.dims[1] + idx3[:, 1]) * self.dims[2] + idx3[:, 2]


def voxel_grid_params(cloud: PointCloud) -> VoxelGrid:
    """Adaptive voxel grid for ``cloud``.

    The voxel edge is the robust extent divided by ``GRID_RESOLUTION``; the
    grid is anchored at the lower corner of the percentile-clipped bounding
    box and spans exactly that box, so stray outliers neither shrink the
    voxels nor shift the anchoring.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot size a voxel grid for an empty cloud")
    lo, hi = _percentile_box(cloud.points)
    delta = float(np.max(hi - lo)) / GRID_RESOLUTION
    if delta <= 0.0:
        dims = np.ones(3, dtype=np.int64)
    else:
        dims = np.maximum(np.ceil((hi - lo) / delta), 1).astype(np.int64)
    return VoxelGrid(voxel_size=delta, origin=lo, dims=dims)


def voxel_downsample_indices(cloud: PointCloud, grid: VoxelGrid) -> np.ndarray:
    """Indices of the representative point kept for each occupied voxel of ``grid``.

    Each voxel contributes exactly its highest-confidence point; confidence
    ties break toward the lowest original index.  The grid pins the binning:
    :func:`voxel_grid_params` derives the adaptive one from a cloud, and
    passing the same grid again re-downsamples with identical anchoring.

    Returns:
        Sorted int64 array of selected original indices.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")
    keys = grid.keys(cloud.points)
    # The rule picks one point per voxel whatever the order inside it, so one
    # unstable sort groups the voxels: 7.6-9.6 -> 4.2-5.8 ms per 55k points.
    order = np.argsort(keys)
    sorted_keys = keys[order]
    new_voxel = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    starts = np.flatnonzero(new_voxel)
    conf = cloud.confidence[order]
    best = np.maximum.reduceat(conf, starts)
    n = len(cloud)
    at_best = np.where(conf == best[np.cumsum(new_voxel) - 1], order, n)
    keep = np.zeros(n, dtype=bool)
    keep[np.minimum.reduceat(at_best, starts)] = True
    return np.flatnonzero(keep)
