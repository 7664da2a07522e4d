"""Point-cloud container, confidence filtering, voxel grid, and NN index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cloudchange import (
    EmptyCloud,
    PointCloud,
    build_index,
    filter_by_median_confidence,
    lower_median,
    median_confidence_mask,
    robust_extent,
    voxel_downsample_indices,
    voxel_grid_params,
)
from cloudchange.cloud import MAX_GRID_RESOLUTION, VoxelGrid, _percentile_box
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene


class TestPointCloud:
    def test_parallel_array_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), np.full(3, 1.5))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "points_value, confidence_value",
        [(np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5), (0.0, np.nan), (0.0, np.inf)],
        ids=["nan_point", "inf_point", "neg_inf_point", "nan_confidence", "inf_confidence"],
    )
    def test_non_finite_values_rejected(self, points_value, confidence_value):
        points = np.zeros((4, 3))
        points[2, 1] = points_value
        confidence = np.full(4, 0.5)
        confidence[3] = confidence_value
        with pytest.raises(ValueError):
            PointCloud(points, confidence)

    def test_default_confidence_is_ones(self):
        cloud = PointCloud(np.zeros((4, 3)))
        assert (cloud.confidence == 1.0).all()

    def test_select_and_concatenate(self, rng):
        cloud = PointCloud(
            rng.normal(size=(10, 3)),
            rng.uniform(0, 1, 10),
            color=rng.integers(0, 255, (10, 3), dtype=np.uint8),
        )
        subset = cloud.select([1, 3, 5])
        assert len(subset) == 3
        np.testing.assert_array_equal(subset.points, cloud.points[[1, 3, 5]])
        np.testing.assert_array_equal(subset.confidence, cloud.confidence[[1, 3, 5]])
        np.testing.assert_array_equal(subset.color, cloud.color[[1, 3, 5]])
        merged = PointCloud.concatenate([subset, subset])
        assert len(merged) == 6
        np.testing.assert_array_equal(merged.color, np.concatenate([subset.color] * 2))
        assert PointCloud.concatenate([subset, PointCloud(subset.points)]).color is None

    def test_frame_subset(self, rng):
        # A frame of an epoch is a contiguous row range: selecting it by a
        # slice gives a read-only view of the epoch arrays, not a copy.
        cloud = PointCloud(rng.normal(size=(6, 3)), rng.uniform(0, 1, 6))
        frame = cloud.select(slice(2, 5))
        assert len(frame) == 3
        assert np.shares_memory(frame.points, cloud.points)
        assert np.shares_memory(frame.confidence, cloud.confidence)
        np.testing.assert_array_equal(frame.points, cloud.points[2:5])
        assert not frame.points.flags.writeable

    @pytest.mark.parametrize(
        "indices",
        [
            [4, 0, 9],
            [-1, -10, 3],
            np.array([], dtype=np.int64),
            [2, 2, 7, 2],
            np.arange(10) % 3 == 0,
            np.zeros(10, dtype=bool),
            np.ones(10, dtype=bool),
            slice(1, 8, 3),
            slice(None, None, -2),
        ],
        ids=["ints", "negative", "empty", "repeated", "mask", "empty_mask", "full_mask", "slice", "reversed"],
    )
    @pytest.mark.parametrize("colored", [True, False])
    def test_select_rows_equal_fancy_indexing(self, rng, indices, colored):
        color = rng.integers(0, 255, (10, 3), dtype=np.uint8) if colored else None
        cloud = PointCloud(rng.normal(size=(10, 3)), rng.uniform(0, 1, 10), color=color)
        subset = cloud.select(indices)
        np.testing.assert_array_equal(subset.points, cloud.points[indices], strict=True)
        np.testing.assert_array_equal(subset.confidence, cloud.confidence[indices], strict=True)
        if colored:
            np.testing.assert_array_equal(subset.color, cloud.color[indices], strict=True)
        else:
            assert subset.color is None

    @pytest.mark.parametrize("shape", [(9,), (11,), (0,), (10, 1)], ids=["short", "long", "empty", "2d"])
    def test_select_rejects_mask_of_wrong_shape(self, rng, shape):
        cloud = PointCloud(rng.normal(size=(10, 3)))
        with pytest.raises(IndexError, match="boolean mask"):
            cloud.select(np.ones(shape, dtype=bool))

    def test_select_index_out_of_range_raises(self, rng):
        cloud = PointCloud(rng.normal(size=(10, 3)))
        with pytest.raises(IndexError):
            cloud.select([3, 10])

    def test_points_are_immutable(self, rng):
        cloud = PointCloud(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 5.0


class TestLowerMedian:
    def test_odd_count_middle(self):
        assert lower_median([3.0, 1.0, 2.0]) == 2.0

    def test_even_count_takes_lower_midpoint(self):
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0

    def test_single_value(self):
        assert lower_median([7.5]) == 7.5

    @given(arrays(np.float64, st.integers(1, 40), elements=st.floats(allow_nan=False)))
    @example(np.array([np.inf, 1.0, -np.inf]))
    @example(np.array([np.inf, 1.0, -np.inf, 2.0]))
    @example(np.array([np.inf, np.inf]))
    def test_equals_lower_middle_of_sorted(self, values):
        # Oracle: the full sort the selection replaced.
        assert lower_median(values) == np.sort(values)[(values.size - 1) // 2]


class TestMedianConfidenceFilter:
    def test_keeps_strictly_above_median(self):
        # Median of {0.1, 0.5, 0.9} is 0.5; strict comparison keeps only 0.9.
        cloud = PointCloud(np.arange(9, dtype=float).reshape(3, 3), [0.1, 0.5, 0.9])
        kept = filter_by_median_confidence(cloud)
        assert len(kept) == 1
        assert kept.confidence[0] == 0.9

    def test_all_equal_returns_input_unchanged(self):
        cloud = PointCloud(np.zeros((5, 3)), np.full(5, 0.7))
        assert filter_by_median_confidence(cloud) is cloud

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyCloud):
            filter_by_median_confidence(PointCloud(np.zeros((0, 3))))

    def test_fallback_when_median_equals_maximum(self):
        # {0.1, 0.5, 0.5}: nothing strictly exceeds the median 0.5, so the
        # comparison relaxes to >= and the two 0.5 points survive.
        mask = median_confidence_mask([0.1, 0.5, 0.5])
        assert mask.tolist() == [False, True, True]

    def test_even_count_uses_lower_midpoint(self):
        mask = median_confidence_mask([0.2, 0.4, 0.6, 0.8])
        # Lower-midpoint median is 0.4; strictly above keeps 0.6 and 0.8.
        assert mask.tolist() == [False, False, True, True]


class TestRobustExtent:
    def test_ignores_far_outliers(self, rng):
        pts = rng.uniform(0.0, 10.0, size=(5000, 3))
        spread = robust_extent(pts)
        pts_out = np.vstack([pts, [[1e6, 0.0, 0.0]]])
        assert abs(robust_extent(pts_out) - spread) < 0.5

    def test_single_point_is_zero(self):
        assert robust_extent([[1.0, 2.0, 3.0]]) == 0.0


@st.composite
def _percentile_clouds(draw):
    """Tie-heavy, constant-column and wide-range clouds, among them sizes
    where (n - 1) * 0.01 is whole (101, 4,101 and 10,001) and sizes whose
    stride-64 sample is too small to cut a tail."""
    n = draw(st.sampled_from([1, 2, 101, 4096, 4101, 10001]) | st.integers(1, 12000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-9, 9))
    kind = draw(st.sampled_from(["ties", "constant", "wide"]))
    if kind == "ties":
        return rng.integers(0, draw(st.integers(1, 6)), size=(n, 3)) * scale
    if kind == "constant":
        points = rng.normal(size=(n, 3)) * scale
        points[:, draw(st.integers(0, 2))] = rng.normal() * scale
        return points
    return rng.standard_cauchy(size=(n, 3)) * scale


class TestPercentileBox:
    @given(points=_percentile_clouds())
    def test_equals_numpy_percentile_bit_for_bit(self, points):
        expected = np.percentile(points, [1.0, 99.0], axis=0)
        assert _percentile_box(points).tobytes() == expected.tobytes()
        assert robust_extent(points) == float(np.max(expected[1] - expected[0]))
        assert voxel_grid_params(PointCloud(points), 50).origin.tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("n", [4096, 10001, 100_000])
    def test_large_clouds_select_their_tails(self, rng, n, monkeypatch):
        points = rng.normal(size=(n, 3))
        expected = np.percentile(points, [1.0, 99.0], axis=0)
        monkeypatch.setattr(np, "percentile", None)
        assert _percentile_box(points).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_unsampled_non_finite_row_matches_numpy(self, rng, value):
        """Row 1 is outside the stride-64 sample; a NaN there is in no tail."""
        points = rng.normal(size=(10001, 3))
        points[1, 2] = value
        expected = np.percentile(points, [1.0, 99.0], axis=0)
        assert _percentile_box(points).tobytes() == expected.tobytes()


@st.composite
def _tied_clouds(draw):
    """Clouds on a coarse lattice with few confidence levels: many points share
    a voxel, many share a confidence, and some share their coordinates."""
    n = draw(st.integers(1, 200))
    pts = draw(arrays(np.float64, (n, 3), elements=st.integers(0, 6).map(lambda v: 0.25 * v)))
    conf = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, 1.0])))
    return PointCloud(pts, conf)


@st.composite
def _continuous_clouds(draw):
    """Clouds with drawn float coordinates and confidences drawn from few
    levels, so ties in confidence are common."""
    n = draw(st.integers(1, 200))
    pts = draw(arrays(np.float64, (n, 3), elements=st.floats(-10.0, 10.0, allow_subnormal=False)))
    conf = draw(arrays(np.float64, n, elements=st.sampled_from([0.1, 0.4, 0.4, 0.9])))
    return PointCloud(pts, conf)


class TestVoxelDownsample:
    def test_single_point_unchanged(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]], [0.4])
        out = cloud.select(voxel_downsample_indices(cloud, voxel_grid_params(cloud, 200)))
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_keeps_max_confidence_in_voxel(self):
        cloud = PointCloud(
            [[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [5.0, 5.0, 5.0]],
            [0.3, 0.9, 0.5],
        )
        out = cloud.select(voxel_downsample_indices(cloud, voxel_grid_params(cloud, 4)))
        assert len(out) == 2
        assert 0.9 in out.confidence and 0.3 not in out.confidence

    def test_hand_computed_voxel_size(self):
        # A 1st-to-99th percentile spread of ~20 along x at resolution 200
        # gives a voxel edge of ~0.1: points 0.05 apart along one axis share
        # a voxel while points 0.15 apart do not.
        base = np.zeros((992, 3))
        base[:, 0] = np.linspace(0.0, 20.0, 992)
        base[:, 1] = base[:, 0] * 0.15
        cloud = PointCloud(base, np.full(992, 0.5))
        grid = voxel_grid_params(cloud, 200)
        lo, hi = np.percentile(base, [1, 99], axis=0)
        assert grid.voxel_size == pytest.approx(np.max(hi - lo) / 200)
        assert grid.voxel_size == pytest.approx(0.1, abs=0.005)

        d = grid.voxel_size
        x0 = grid.origin[0] + 100 * d
        y0 = grid.origin[1] + 5 * d
        extras = np.array(
            [
                [x0 + 0.02 * d, y0 + 0.5 * d, 0.0],
                [x0 + 0.52 * d, y0 + 0.5 * d, 0.0],  # 0.05 away: same voxel
                [x0 + 0.20 * d, y0 + 1.5 * d, 0.0],
                [x0 + 1.70 * d, y0 + 1.5 * d, 0.0],  # 0.15 away: next voxel
            ]
        )
        pts = np.vstack([base, extras])
        conf = np.concatenate([np.full(992, 0.5), [0.9, 0.8, 0.9, 0.8]])
        keep = voxel_downsample_indices(PointCloud(pts, conf), grid)
        # Pair one merges; only the higher-confidence member survives.
        assert 992 in keep and 993 not in keep
        # Pair two straddles a voxel boundary; both survive.
        assert 994 in keep and 995 in keep

    def test_tie_breaks_toward_lowest_index(self):
        cloud = PointCloud(
            [[0.0, 0.0, 0.0], [0.001, 0.0, 0.0], [9.0, 9.0, 9.0]],
            [0.7, 0.7, 0.2],
        )
        keep = voxel_downsample_indices(cloud, voxel_grid_params(cloud, 4))
        assert 0 in keep and 1 not in keep

    @given(cloud=st.one_of(_tied_clouds(), _continuous_clouds()), resolution=st.integers(1, 60))
    def test_idempotent_under_pinned_grid(self, cloud, resolution):
        # Re-downsampling with the same grid keeps every point.
        grid = voxel_grid_params(cloud, resolution)
        once = cloud.select(voxel_downsample_indices(cloud, grid=grid))
        np.testing.assert_array_equal(voxel_downsample_indices(once, grid=grid), np.arange(len(once)))

    def test_no_input_point_beats_representative(self, rng):
        pts = rng.uniform(0.0, 5.0, size=(2000, 3))
        conf = rng.uniform(0.0, 1.0, 2000)
        cloud = PointCloud(pts, conf)
        grid = voxel_grid_params(cloud, 10)
        keep = voxel_downsample_indices(cloud, grid=grid)
        keys = grid.keys(pts)
        best = {}
        for i in range(len(pts)):
            k = keys[i]
            if k not in best or conf[i] > best[k]:
                best[k] = conf[i]
        for i in keep:
            assert conf[i] == best[keys[i]]

    def test_all_coincident_collapses_to_one_point(self):
        cloud = PointCloud(np.ones((50, 3)), np.linspace(0.1, 0.9, 50))
        out = cloud.select(voxel_downsample_indices(cloud, voxel_grid_params(cloud, 200)))
        assert len(out) == 1
        assert out.confidence[0] == pytest.approx(0.9)

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyCloud):
            voxel_downsample_indices(PointCloud(np.zeros((0, 3))), VoxelGrid(1.0, np.zeros(3), np.ones(3)))

    def test_outliers_clamped_not_dropped(self, rng):
        pts = rng.uniform(0.0, 10.0, size=(500, 3))
        pts[0] = [1e4, 1e4, 1e4]
        cloud = PointCloud(pts, np.full(500, 0.5))
        out = cloud.select(voxel_downsample_indices(cloud, voxel_grid_params(cloud, 20)))
        # The outlier lands in a boundary voxel; total never exceeds input.
        assert 1 <= len(out) <= 500

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("voxel_size", [0.1, 1e-300], ids=["beyond_int64", "overflow_to_inf"])
    def test_far_points_clamp_into_the_nearest_boundary_voxel(self, voxel_size):
        # x quotients of +-1e301 lie beyond the int64 range; at 1e-300 they,
        # and those of y and z, overflow to +-inf.
        grid = VoxelGrid(voxel_size, np.zeros(3), np.full(3, 10))
        far = np.array([[1e300, 0.5, 0.5], [-1e300, 0.5, 0.5]])
        edge = np.array([[9.5 * voxel_size, 0.5, 0.5], [0.5 * voxel_size, 0.5, 0.5]])
        keys = grid.keys(far)
        np.testing.assert_array_equal(keys, grid.keys(edge))
        assert (keys // 100).tolist() == [9, 0]

    @pytest.mark.parametrize("resolution", [0, MAX_GRID_RESOLUTION + 1])
    def test_out_of_range_resolution_rejected(self, resolution):
        cloud = PointCloud(np.eye(3))
        with pytest.raises(ValueError, match="grid_resolution"):
            voxel_grid_params(cloud, resolution)

    def test_largest_resolution_keys_stay_non_negative(self, rng):
        # At the largest accepted resolution every linearized key still fits
        # in int64; at 3e6 some of these keys wrap negative.
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(20000, 3)))
        grid = voxel_grid_params(cloud, MAX_GRID_RESOLUTION)
        assert (grid.keys(cloud.points) >= 0).all()


def _lexsort_voxel_indices(cloud: PointCloud, grid: VoxelGrid) -> np.ndarray:
    """Reference selection: one 3-key lexsort by voxel, falling confidence, index."""
    keys = grid.keys(cloud.points)
    order = np.lexsort((np.arange(len(cloud)), -cloud.confidence, keys))
    sorted_keys = keys[order]
    first = np.ones(len(cloud), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.sort(order[first])


class TestVoxelSelectionMatchesLexsort:
    @given(cloud=_tied_clouds(), resolution=st.integers(1, 8))
    def test_adaptive_grid(self, cloud, resolution):
        grid = voxel_grid_params(cloud, resolution)
        np.testing.assert_array_equal(
            voxel_downsample_indices(cloud, grid=grid), _lexsort_voxel_indices(cloud, grid)
        )

    def test_large_tied_cloud(self, rng):
        """Thousands of points per voxel, where an unstable sort reorders them."""
        cloud = PointCloud(
            rng.integers(0, 40, size=(20_000, 3)) * 0.25, rng.choice([0.2, 0.5, 0.9], 20_000)
        )
        grid = voxel_grid_params(cloud, 3)
        np.testing.assert_array_equal(
            voxel_downsample_indices(cloud, grid), _lexsort_voxel_indices(cloud, grid)
        )

    def test_zero_voxel_size_keeps_first_maximum(self):
        pts = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        conf = np.tile([0.2, 0.9, 0.9, 0.4], 16)
        cloud = PointCloud(pts, conf)
        grid = VoxelGrid(voxel_size=0.0, origin=np.zeros(3), dims=np.ones(3))
        keep = voxel_downsample_indices(cloud, grid=grid)
        np.testing.assert_array_equal(keep, _lexsort_voxel_indices(cloud, grid))
        assert keep.tolist() == [1]


@st.composite
def _index_clouds(draw):
    """Random, lattice (exact-distance ties) or duplicated-row clouds of up to
    several KD-tree leaves."""
    kind = draw(st.sampled_from(["random", "lattice", "duplicated"]))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.normal(size=(n, 3))
    if kind == "lattice":
        return rng.integers(0, 4, size=(n, 3)) * 0.5
    base = rng.normal(size=(max(1, n // 4), 3))
    return base[rng.integers(0, len(base), n)]


class TestSpatialIndex:
    def test_single_point_cloud(self):
        index = build_index(PointCloud([[1.0, 2.0, 3.0]]))
        dist, idx = index.query([[0.0, 0.0, 0.0]])
        assert idx.tolist() == [0]
        assert dist[0] == pytest.approx(np.sqrt(14.0))

    def test_query_at_stored_point_is_zero(self, rng):
        pts = rng.normal(size=(100, 3))
        index = build_index(PointCloud(pts))
        dist, idx = index.query(pts[17:18])
        assert dist.tolist() == [0.0]
        assert idx.tolist() == [17]

    def test_matches_linear_scan_bit_for_bit(self, rng):
        pts = rng.normal(size=(1000, 3))
        queries = rng.normal(size=(100, 3))
        index = build_index(PointCloud(pts))
        dist, idx = index.query(queries)
        # Exhaustive oracle with the same distance arithmetic.
        all_d = np.sqrt(np.sum((queries[:, None, :] - pts[None, :, :]) ** 2, axis=2))
        brute_idx = np.argmin(all_d, axis=1)
        brute_d = all_d[np.arange(100), brute_idx]
        assert (idx == brute_idx).all()
        assert (dist == brute_d).all()

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyCloud):
            build_index(PointCloud(np.zeros((0, 3))))

    @given(
        points=_index_clouds(),
        queries=_index_clouds(),
        permutation=st.sampled_from(["random", "leaf_order", "dealt_leaf_order"]),
        bound=st.one_of(st.just(np.inf), st.floats(0.0, 3.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_answers_do_not_depend_on_query_order(self, points, queries, permutation, bound, seed):
        # Why querying in another cloud's leaf order cannot change a score or
        # a tie's pick: each answer depends only on the tree and the point.
        index = build_index(PointCloud(points))
        assert np.array_equal(np.sort(index.order), np.arange(len(points)))
        assert not index.order.flags.writeable
        if permutation == "random":
            order = np.random.default_rng(seed).permutation(len(queries))
        else:
            order = build_index(PointCloud(queries)).order
            if permutation == "dealt_leaf_order":
                order = np.concatenate([order[0::2], order[1::2]])
        dist, idx = index.query(queries, bound)
        permuted_dist, permuted_idx = index.query(queries[order], bound)
        scattered_dist, scattered_idx = np.empty_like(dist), np.empty_like(idx)
        scattered_dist[order] = permuted_dist
        scattered_idx[order] = permuted_idx
        np.testing.assert_array_equal(scattered_dist, dist)
        np.testing.assert_array_equal(scattered_idx, idx)


_coordinates = st.one_of(
    st.integers(-4, 4).map(float), st.floats(-8.0, 8.0, allow_subnormal=False)
)


class TestBoundedQuery:
    """A bounded query answers exactly inside the bound and ``inf`` beyond it."""

    @given(
        points=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)), elements=_coordinates),
        queries=st.one_of(
            arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)), elements=_coordinates),
            arrays(np.float64, (1, 3), elements=_coordinates),
        ),
        bound=st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.just(np.inf)),
    )
    # Pinned: a zero bound, a single query point just beyond and just inside
    # the bound, and a bound whose square underflows to 0.0.
    @example(points=np.eye(3), queries=np.eye(3), bound=0.0)
    @example(points=np.array([[1.0, 2.0, 3.0]]), queries=np.zeros((1, 3)), bound=3.74)
    @example(points=np.array([[1.0, 2.0, 3.0]]), queries=np.zeros((1, 3)), bound=3.75)
    @example(points=np.array([[1.0, 2.0, 3.0]]), queries=np.array([[1.0, 2.0, 3.0]]), bound=1e-200)
    def test_matches_unbounded_and_brute_force(self, points, queries, bound):
        index = build_index(PointCloud(points))
        dist, idx = index.query(queries, bound)
        exact_dist, exact_idx = index.query(queries)
        assert dist.shape == exact_dist.shape == idx.shape == (len(queries),)
        all_d = _exhaustive_distances(queries, points)
        found = np.isfinite(dist)
        # Inside the bound: the unbounded answer, bit for bit.  Only among
        # neighbors at exactly the same distance may the index differ.
        assert (dist[found] == exact_dist[found]).all()
        assert (dist[found] < bound).all()
        rows = np.flatnonzero(found)
        assert (all_d[rows, idx[found]] == exact_dist[found]).all()
        unique = (all_d[rows] == exact_dist[found, None]).sum(axis=1) == 1
        assert (idx[found][unique] == exact_idx[found][unique]).all()
        # At or beyond the bound: inf with the sentinel index.
        assert (idx[~found] == len(points)).all()
        assert np.isinf(dist[exact_dist >= bound]).all()
        # Clear of the bound by more than rounding, every neighbor is found.
        assert found[exact_dist * (1.0 + 1e-9) < bound].all()


def _surface_index_and_queries():
    """Indexed cloud and queries built from box-face samples.

    The indexed cloud is a small scene's epoch-1 world points plus exact
    copies of some of its rows (exact-distance ties) and a cluster displaced
    far from every surface; the queries are the epoch-2 world points (moved,
    added and removed objects), the indexed rows themselves and a second far
    cluster displaced the other way.
    """
    scene = generate_scene(
        SceneSpec(
            seed=11,
            n_static=1500,
            n_frames_per_epoch=6,
            noise_sigma=0.002,
            change_spec=(
                ChangeSpec("added", 80),
                ChangeSpec("removed", 60),
                ChangeSpec("moved", 90, (1.0, 0.8, 0.3)),
            ),
        )
    )
    base = scene.world_t1
    far = base[::25] + np.array([3.0, -2.0, 1.5]) * scene.extent
    indexed = np.concatenate([base, base[::7], far])
    queries = np.concatenate([scene.world_t2, indexed[::3], base[::30] - scene.extent])
    return indexed, queries


def _exhaustive_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    # Same distance arithmetic as SpatialIndex.query; blocks bound the memory.
    blocks = [
        np.sqrt(np.sum((queries[i : i + 256, None, :] - points[None, :, :]) ** 2, axis=2))
        for i in range(0, len(queries), 256)
    ]
    return np.concatenate(blocks)


class TestSurfaceIndexExactness:
    """Exact NN on surface samples, the data the index's tree is tuned for."""

    @pytest.fixture(scope="class")
    def scan(self):
        indexed, queries = _surface_index_and_queries()
        dist, idx = build_index(PointCloud(indexed)).query(queries)
        return dist, idx, _exhaustive_distances(queries, indexed)

    def test_distances_match_exhaustive_scan_bit_for_bit(self, scan):
        dist, _, all_d = scan
        assert (dist == all_d.min(axis=1)).all()

    def test_every_index_is_argmin_or_exact_tie(self, scan):
        dist, idx, all_d = scan
        rows = np.arange(len(idx))
        assert (all_d[rows, idx] == all_d.min(axis=1)).all()
        # The duplicated rows must really produce ties, or the check is vacuous.
        ties = (all_d == all_d.min(axis=1, keepdims=True)).sum(axis=1)
        assert (ties > 1).any()


class TestNNDistances:
    def test_identical_clouds_all_zero(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        dist, idx = build_index(cloud).query(cloud.points)
        assert (dist == 0.0).all()
        assert (idx == np.arange(50)).all()

    def test_known_offset(self):
        target = PointCloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        source = PointCloud([[0.5, 0.0, 0.0]])
        dist, idx = build_index(target).query(source.points)
        assert dist[0] == pytest.approx(0.5)
        assert idx[0] == 0

    def test_matches_brute_force_exactly(self, rng):
        src = PointCloud(rng.normal(size=(500, 3)))
        tgt_pts = rng.normal(size=(500, 3))
        dist, idx = build_index(PointCloud(tgt_pts)).query(src.points)
        all_d = np.sqrt(
            np.sum((src.points[:, None, :] - tgt_pts[None, :, :]) ** 2, axis=2)
        )
        assert (idx == np.argmin(all_d, axis=1)).all()
        assert (dist == all_d[np.arange(500), idx]).all()
