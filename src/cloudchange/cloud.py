"""Point-cloud container, confidence filtering, voxel downsampling and NN search.

A :class:`PointCloud` is a set of parallel arrays (positions, per-point
confidence, optional color and source-frame index) that is immutable after
construction so instances can be shared freely across workers; every
coordinate and confidence must be finite.  Spatial queries go through
:class:`SpatialIndex`, a thin wrapper around a sliding-midpoint KD-tree
that always answers with the exact Euclidean nearest neighbor.  The clouds
are surface samples, and many queries land off those surfaces (changed
points), which sliding-midpoint splits answer far faster than median splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud

# Largest adaptive grid resolution: the linearized voxel keys reach about
# (resolution + 1)^3, which must stay below 2^63.
MAX_GRID_RESOLUTION = 2_000_000


def lower_median(values) -> float:
    """Median with the lower-midpoint convention for even counts.

    For odd n this is the ordinary middle element; for even n it is the
    smaller of the two middle elements (never an average), so the result
    is always one of the input values.
    """
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if v.size == 0:
        raise ValueError("median of empty sequence")
    return float(v[(v.size - 1) // 2])


def robust_extent(points) -> float:
    """Outlier-resistant spatial extent of a point set.

    Per axis, the spread between the 1st and 99th coordinate percentiles;
    the extent is the maximum spread over the three axes.  Stray points far
    outside the bulk of the cloud therefore barely move the value.
    """
    pts = np.asarray(points, dtype=np.float64)
    lo, hi = np.percentile(pts, [1.0, 99.0], axis=0)
    return float(np.max(hi - lo))


def _percentile_box(points) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = np.percentile(np.asarray(points, dtype=np.float64), [1.0, 99.0], axis=0)
    return lo, hi


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
        source_frame: optional (n,) int64 1-based frame index per point.
    """

    points: np.ndarray
    confidence: np.ndarray = None
    color: np.ndarray = None
    source_frame: np.ndarray = None

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
        if self.source_frame is not None:
            sf = np.ascontiguousarray(np.asarray(self.source_frame, dtype=np.int64))
            if sf.shape != (n,):
                raise ValueError(f"source_frame must have shape ({n},)")
            object.__setattr__(self, "source_frame", _readonly(sf))

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, indices) -> "PointCloud":
        """New cloud keeping the rows in ``indices`` (mask or index array)."""
        idx = np.asarray(indices)
        return PointCloud(
            points=self.points[idx],
            confidence=self.confidence[idx],
            color=None if self.color is None else self.color[idx],
            source_frame=None if self.source_frame is None else self.source_frame[idx],
        )

    def with_points(self, points: np.ndarray) -> "PointCloud":
        """New cloud with replaced positions, all other attributes preserved."""
        return PointCloud(
            points=points,
            confidence=self.confidence,
            color=self.color,
            source_frame=self.source_frame,
        )

    def frame_subset(self, frame_index: int) -> "PointCloud":
        """Points whose source frame equals ``frame_index``."""
        if self.source_frame is None:
            raise ValueError("cloud has no source_frame labels")
        return self.select(self.source_frame == frame_index)

    @staticmethod
    def concatenate(clouds: list["PointCloud"]) -> "PointCloud":
        """Stack several clouds into one, preserving order.

        Color / source_frame are kept only if every input carries them.
        """
        if not clouds:
            raise EmptyCloud("cannot concatenate zero clouds")
        pts = np.concatenate([c.points for c in clouds])
        conf = np.concatenate([c.confidence for c in clouds])
        color = None
        if all(c.color is not None for c in clouds):
            color = np.concatenate([c.color for c in clouds])
        frames = None
        if all(c.source_frame is not None for c in clouds):
            frames = np.concatenate([c.source_frame for c in clouds])
        return PointCloud(pts, conf, color, frames)


class SpatialIndex:
    """Exact nearest-neighbor index over a cloud's points.

    The tree is scipy's ``cKDTree`` with sliding-midpoint splits
    (``balanced_tree=False``, Maneewongvatana & Mount 1999) and cells that
    keep their split bounds instead of shrinking to the data
    (``compact_nodes=False``).  The indexed clouds are samples of surfaces,
    and detection queries every changed point, far from all of them; on
    scipy's default median-split compact tree such off-surface queries cost
    many times an on-surface one.  The tree shape changes only the search
    cost, never the answer.

    Immutable after construction.  Distances are recomputed from the matched
    coordinates with one canonical expression so that an exhaustive scan
    using the same expression reproduces them bit for bit.
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self._cloud = cloud
        # Surface samples: off-surface queries are slow on median-split
        # compact trees, so split at sliding midpoints and keep full cells.
        self._tree = cKDTree(cloud.points, compact_nodes=False, balanced_tree=False)

    @property
    def points(self) -> np.ndarray:
        return self._cloud.points

    @property
    def cloud(self) -> PointCloud:
        return self._cloud

    def query(self, query_points) -> tuple[np.ndarray, np.ndarray]:
        """Exact nearest neighbor of each query point.

        Returns:
            (distances, indices): both (m,) arrays, ordered like the queries.
        """
        q = np.asarray(query_points, dtype=np.float64)
        single = q.ndim == 1
        q = np.atleast_2d(q)
        _, idx = self._tree.query(q, k=1, workers=-1)
        idx = np.asarray(idx, dtype=np.int64)
        dist = np.sqrt(np.sum((q - self.points[idx]) ** 2, axis=1))
        if single:
            return dist[0], idx[0]
        return dist, idx


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build an exact nearest-neighbor index over ``cloud``."""
    return SpatialIndex(cloud)


def nn_distances(source: PointCloud, target_index: SpatialIndex) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor distance from every source point into the indexed cloud.

    Returns:
        (distances, indices) in source order: element i is the Euclidean
        distance from source point i to its closest indexed point, and that
        point's index.
    """
    if len(source) == 0:
        raise EmptyCloud("nn_distances requires a non-empty source cloud")
    return target_index.query(source.points)


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
        idx3 = np.floor((points - self.origin) / self.voxel_size).astype(np.int64)
        idx3 = np.clip(idx3, 0, self.dims - 1)
        return (idx3[:, 0] * self.dims[1] + idx3[:, 1]) * self.dims[2] + idx3[:, 2]


def check_grid_resolution(grid_resolution: int):
    """Reject a resolution outside [1, MAX_GRID_RESOLUTION] with ValueError."""
    if not 1 <= grid_resolution <= MAX_GRID_RESOLUTION:
        raise ValueError(
            f"grid_resolution must lie in [1, {MAX_GRID_RESOLUTION}], got {grid_resolution}"
        )


def voxel_grid_params(cloud: PointCloud, grid_resolution: int) -> VoxelGrid:
    """Adaptive voxel grid for ``cloud``.

    The voxel edge is the robust extent divided by ``grid_resolution``; the
    grid is anchored at the lower corner of the percentile-clipped bounding
    box and spans exactly that box, so stray outliers neither shrink the
    voxels nor shift the anchoring.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot size a voxel grid for an empty cloud")
    check_grid_resolution(grid_resolution)
    lo, hi = _percentile_box(cloud.points)
    delta = float(np.max(hi - lo)) / grid_resolution
    if delta <= 0.0:
        dims = np.ones(3, dtype=np.int64)
    else:
        dims = np.maximum(np.ceil((hi - lo) / delta), 1).astype(np.int64)
    return VoxelGrid(voxel_size=delta, origin=lo, dims=dims)


def voxel_downsample_indices(
    cloud: PointCloud,
    grid_resolution: int = 200,
    *,
    grid: VoxelGrid = None,
) -> np.ndarray:
    """Indices of the representative point kept for each occupied voxel.

    Each voxel contributes exactly its highest-confidence point; confidence
    ties break toward the lowest original index.  Pass ``grid`` to pin the
    binning (e.g. to re-downsample with identical anchoring); by default it
    is derived adaptively from the cloud via :func:`voxel_grid_params`.

    Returns:
        Sorted int64 array of selected original indices.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")
    if grid is None:
        grid = voxel_grid_params(cloud, grid_resolution)
    keys = grid.keys(cloud.points)
    order = np.lexsort((np.arange(len(cloud)), -cloud.confidence, keys))
    sorted_keys = keys[order]
    first = np.ones(len(cloud), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.sort(order[first])

