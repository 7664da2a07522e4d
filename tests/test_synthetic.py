"""Synthetic scene generator and the mock joint-inference oracle."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudchange import InvalidSpec, fps_temporal
from cloudchange import synthetic
from cloudchange.synthetic import (
    BiTemporalScene,
    ChangeSpec,
    SceneSpec,
    all_frames_keyframes,
    generate_scene,
    mock_joint_inference,
)

from conftest import random_sim3


def _twin(scene: BiTemporalScene, **changes) -> BiTemporalScene:
    """The scene regenerated from its spec with ``changes`` applied.

    Noise, edges, confidence and frames draw from separately salted
    streams, so a twin that changes only ``noise_sigma`` or
    ``edge_noise_fraction`` keeps the rows, labels and frames of ``scene``
    (test_noise_and_edges_leave_rows_labels_and_frames checks this).
    """
    return generate_scene(replace(scene.spec, **changes), scene.epoch_transforms)


def _edge_masks(scene: BiTemporalScene) -> tuple:
    """Each epoch's edge-elongated rows: those whose world position moves
    when the twin converts no points to edges."""
    twin = _twin(scene, edge_noise_fraction=0.0)
    return tuple(
        (scene.world_points(e) != twin.world_points(e)).any(axis=1) for e in (1, 2)
    )


def _static_counterparts(scene: BiTemporalScene):
    """World positions and edge flags of the shared static samples, epoch by
    epoch, in matching order.

    Without noise or edges the twin places both epochs' static samples at
    bitwise-equal world positions, so sorting each epoch's static rows by
    their twin coordinates pairs the counterparts up.
    """
    clean = _twin(scene, noise_sigma=0.0, edge_noise_fraction=0.0)
    paired = []
    for epoch_id, edge in zip((1, 2), _edge_masks(scene)):
        static = ~(scene.labels_t1 if epoch_id == 1 else scene.labels_t2)
        order = np.lexsort(clean.world_points(epoch_id)[static].T)
        paired.append((scene.world_points(epoch_id)[static][order], edge[static][order]))
    (w1, e1), (w2, e2) = paired
    return w1, w2, e1, e2


class TestGenerateScene:
    def test_clean_static_scene_maps_exactly(self):
        scene = generate_scene(SceneSpec(seed=1, n_static=2000))
        mapped = scene.gt_relative.apply(scene.cloud_t1.points)
        w1, w2, _, _ = _static_counterparts(scene)
        np.testing.assert_allclose(w1, w2, atol=1e-12)
        # Same static world points, so T1 mapped into T2's frame must match
        # T2's own view of them.
        into_t2 = scene.epoch_transforms[1].inverse()
        np.testing.assert_allclose(
            np.sort(mapped, axis=0), np.sort(into_t2.apply(w2), axis=0), atol=1e-9
        )

    def test_added_object_point_count_and_labels(self):
        scene = generate_scene(
            SceneSpec(seed=2, n_static=1500, change_spec=(ChangeSpec("added", 500),))
        )
        assert len(scene.cloud_t1) == 1500
        assert len(scene.cloud_t2) == 2000
        assert int(scene.labels_t1.sum()) == 0
        assert int(scene.labels_t2.sum()) == 500

    def test_removed_and_moved_bookkeeping(self):
        scene = generate_scene(
            SceneSpec(
                seed=3,
                n_static=1000,
                change_spec=(
                    ChangeSpec("removed", 300),
                    ChangeSpec("moved", 200, (1.0, 0.5, 0.2)),
                ),
            )
        )
        assert len(scene.cloud_t1) == 1500
        assert len(scene.cloud_t2) == 1200
        assert int(scene.labels_t1.sum()) == 500
        assert int(scene.labels_t2.sum()) == 200

    def test_same_seed_bitwise_identical(self):
        spec = SceneSpec(
            seed=17,
            n_static=800,
            noise_sigma=0.002,
            edge_noise_fraction=0.2,
            change_spec=(ChangeSpec("added", 100),),
        )
        a = generate_scene(spec)
        b = generate_scene(spec)
        assert (a.cloud_t1.points == b.cloud_t1.points).all()
        assert (a.cloud_t2.points == b.cloud_t2.points).all()
        assert (a.cloud_t1.confidence == b.cloud_t1.confidence).all()
        assert (a.labels_t2 == b.labels_t2).all()

    def test_noise_and_edges_leave_rows_labels_and_frames(self):
        # The derived oracles above rest on this: noise and edges draw from
        # their own streams, so changing their levels moves points but keeps
        # every row in place.
        spec = SceneSpec(
            seed=11,
            n_static=1500,
            n_frames_per_epoch=6,
            noise_sigma=0.002,
            edge_noise_fraction=0.2,
            change_spec=(
                ChangeSpec("added", 200),
                ChangeSpec("removed", 150),
                ChangeSpec("moved", 100, (1.0, 0.5, 0.2)),
            ),
        )
        scene = generate_scene(spec)
        for changes in ({"noise_sigma": 0.0, "edge_noise_fraction": 0.0},
                        {"noise_sigma": 0.005, "edge_noise_fraction": 0.5}):
            twin = generate_scene(replace(spec, **changes))
            assert twin.extent == scene.extent
            for epoch_id in (1, 2):
                assert not np.array_equal(twin.world_points(epoch_id), scene.world_points(epoch_id))
                np.testing.assert_array_equal(
                    twin.frame_bounds(epoch_id), scene.frame_bounds(epoch_id)
                )
            np.testing.assert_array_equal(twin.labels_t1, scene.labels_t1)
            np.testing.assert_array_equal(twin.labels_t2, scene.labels_t2)
            for ours, theirs in ((twin.trajectory_t1, scene.trajectory_t1),
                                 (twin.trajectory_t2, scene.trajectory_t2)):
                np.testing.assert_array_equal(ours.centers, theirs.centers)
                assert ours.frame_indices == theirs.frame_indices

    def test_static_residual_bounded_by_six_sigma(self):
        sigma = 0.003
        scene = generate_scene(SceneSpec(seed=5, n_static=3000, noise_sigma=sigma))
        w1, w2, e1, e2 = _static_counterparts(scene)
        clean = ~(e1 | e2)
        residual = np.linalg.norm(w1[clean] - w2[clean], axis=1)
        assert residual.max() <= 6.0 * sigma * scene.extent + 1e-12

    def test_edge_outlier_confidence_strictly_below_inliers(self):
        scene = generate_scene(
            SceneSpec(seed=6, n_static=2000, edge_noise_fraction=0.3, noise_sigma=0.001)
        )
        for cloud, edge in zip((scene.cloud_t1, scene.cloud_t2), _edge_masks(scene)):
            assert edge.sum() == round(0.3 * len(cloud))
            assert cloud.confidence[edge].max() < cloud.confidence[~edge].min()

    def test_scales_within_default_range(self):
        for seed in range(5):
            scene = generate_scene(SceneSpec(seed=seed, n_static=100))
            for t in scene.epoch_transforms:
                assert 0.2 <= t.scale <= 5.0

    def test_gt_relative_consistent_with_pair(self, rng):
        t1, t2 = random_sim3(rng), random_sim3(rng)
        scene = generate_scene(SceneSpec(seed=9, n_static=200), (t1, t2))
        from cloudchange import compose_relative

        expected = compose_relative(t1, t2)
        assert scene.gt_relative.scale == pytest.approx(expected.scale, rel=1e-15)

    def test_moved_displacement_must_clear_noise(self):
        with pytest.raises(InvalidSpec):
            generate_scene(
                SceneSpec(
                    seed=4,
                    n_static=500,
                    noise_sigma=0.05,
                    change_spec=(ChangeSpec("moved", 100, (0.01, 0.0, 0.0)),),
                )
            )

    def test_invalid_spec_fields(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(seed=1, n_static=0)
        with pytest.raises(InvalidSpec):
            SceneSpec(seed=1, edge_noise_fraction=1.5)
        with pytest.raises(InvalidSpec):
            ChangeSpec("renamed", 10)

    @pytest.mark.parametrize(
        "noise",
        [
            {"noise_sigma": float("nan")},
            {"noise_sigma": float("inf")},
            {"edge_noise_fraction": 0.1, "edge_noise_elongation": float("nan")},
        ],
        ids=["nan_sigma", "inf_sigma", "nan_elongation"],
    )
    def test_non_finite_noise_is_invalid_spec(self, noise):
        # Spec files reject non-finite numbers while decoding; the Python API
        # must reject them too, before generation fails on the coordinates.
        with pytest.raises(InvalidSpec, match="finite"):
            SceneSpec(seed=0, n_static=200, **noise)

    @pytest.mark.parametrize("field", ["noise_sigma", "edge_noise_fraction", "edge_noise_elongation"])
    @pytest.mark.parametrize("value", [True, "0.1", None], ids=["bool", "string", "none"])
    def test_float_fields_take_only_numbers(self, field, value):
        with pytest.raises(InvalidSpec, match=f"{field} must be a number"):
            SceneSpec(**{"seed": 0, "n_static": 200, field: value})

    def test_float_fields_are_floats(self):
        spec = SceneSpec(seed=0, noise_sigma=np.float32(0.25), edge_noise_fraction=1)
        assert (spec.noise_sigma, spec.edge_noise_fraction) == (0.25, 1.0)
        assert type(spec.noise_sigma) is float and type(spec.edge_noise_fraction) is float

    @pytest.mark.parametrize("field", ["seed", "n_static", "n_frames_per_epoch"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["fraction", "integral_float", "bool"])
    def test_integer_fields_take_only_integers(self, field, value):
        with pytest.raises(InvalidSpec, match=f"{field} must be an integer"):
            SceneSpec(**{"seed": 0, "n_static": 200, field: value})
        with pytest.raises(InvalidSpec, match="n_points must be an integer"):
            ChangeSpec("added", value)

    def test_numpy_integers_are_integers(self):
        spec = SceneSpec(seed=np.int64(3), n_static=np.uint16(200), n_frames_per_epoch=np.int32(4))
        assert (spec.seed, spec.n_static, spec.n_frames_per_epoch) == (3, 200, 4)
        assert type(spec.n_static) is int
        assert ChangeSpec("added", np.int64(10)).n_points == 10

    def test_change_given_as_dict_is_invalid_spec(self):
        # from_dict is the one decoder of JSON changes; it rejects n_points 5.5.
        change = {"kind": "added", "n_points": 5.5}
        with pytest.raises(InvalidSpec, match="ChangeSpec"):
            SceneSpec(seed=1, n_static=200, n_frames_per_epoch=3, change_spec=[change])
        with pytest.raises(InvalidSpec, match="n_points"):
            SceneSpec.from_dict({"seed": 1, "change_spec": [change]})

    def test_points_grouped_by_frame(self):
        scene = generate_scene(SceneSpec(seed=11, n_static=1000, n_frames_per_epoch=8))
        for epoch_id in (1, 2):
            bounds = scene.frame_bounds(epoch_id)
            cloud = scene.cloud(epoch_id)
            assert len(bounds) == 9 and bounds[0] == 0 and bounds[-1] == len(cloud)
            assert (np.diff(bounds) >= 0).all()
            frames = scene.epoch_frames(epoch_id)
            assert [len(f) for f in frames] == np.diff(bounds).tolist()
            # Each frame is a zero-copy view of its row range.
            for lo, frame in zip(bounds[:-1], frames):
                assert np.shares_memory(frame.points, cloud.points) or len(frame) == 0
                np.testing.assert_array_equal(frame.points, cloud.points[lo : lo + len(frame)])
            # Frame rows follow the camera order: each frame's mean azimuth
            # lies closest to its own camera's among all cameras.
            world = scene.world_points(epoch_id)
            trajectory = scene.trajectory_t1 if epoch_id == 1 else scene.trajectory_t2
            centers = trajectory.centers
            cam_az = np.arctan2(centers[:, 1], centers[:, 0])
            for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]), start=1):
                if hi - lo < 20:
                    continue
                az = np.arctan2(world[lo:hi, 1], world[lo:hi, 0])
                mean = np.arctan2(np.sin(az).mean(), np.cos(az).mean())
                gap = np.abs(np.angle(np.exp(1j * (cam_az - mean))))
                assert int(np.argmin(gap)) + 1 == index

    @pytest.mark.parametrize("count", [1, 3])
    def test_epoch_transforms_must_be_two(self, rng, monkeypatch, count):
        # The pair is checked before any geometry is drawn.
        monkeypatch.setattr(synthetic, "_box_faces", None)
        transforms = tuple(random_sim3(rng) for _ in range(count))
        with pytest.raises(InvalidSpec, match="exactly two transforms"):
            generate_scene(SceneSpec(seed=9, n_static=200), transforms)

    def test_given_transforms_reproduce_the_scene(self):
        spec = SceneSpec(
            seed=21, n_static=600, n_frames_per_epoch=5, noise_sigma=0.002,
            edge_noise_fraction=0.2, change_spec=(ChangeSpec("moved", 50, (1.0, 0.0, 0.0)),),
        )
        scene = generate_scene(spec)
        again = generate_scene(spec, scene.epoch_transforms)
        assert again.spec == scene.spec and again.extent == scene.extent
        assert [t.to_dict() for t in again.epoch_transforms] == [
            t.to_dict() for t in scene.epoch_transforms
        ]
        for epoch_id in (1, 2):
            for name in ("points", "confidence"):
                assert np.array_equal(
                    getattr(again.cloud(epoch_id), name), getattr(scene.cloud(epoch_id), name)
                )
            assert np.array_equal(again.world_points(epoch_id), scene.world_points(epoch_id))
            assert np.array_equal(again.frame_bounds(epoch_id), scene.frame_bounds(epoch_id))
        assert np.array_equal(again.labels_t1, scene.labels_t1)
        assert np.array_equal(again.labels_t2, scene.labels_t2)

    def test_trajectory_counts(self):
        scene = generate_scene(SceneSpec(seed=12, n_static=300, n_frames_per_epoch=12))
        assert len(scene.trajectory_t1) == 12
        assert len(scene.trajectory_t2) == 12
        assert scene.trajectory_t1.frame_indices == tuple(range(1, 13))


class TestMockJointInference:
    def test_zero_perturbation_matches_gt_mapping(self):
        scene = generate_scene(
            SceneSpec(seed=21, n_static=1500, noise_sigma=0.002, n_frames_per_epoch=10)
        )
        keyframes = (fps_temporal(10, 3, epoch_id=1), fps_temporal(10, 3, epoch_id=2))
        joint = mock_joint_inference(scene, keyframes, sigma=0.0)
        for (epoch_id, index), cloud in joint.clouds.items():
            epoch_cloud = scene.epoch_frames(epoch_id)[index - 1]
            mapped = scene.epoch_transforms[epoch_id - 1].apply(epoch_cloud.points)
            np.testing.assert_allclose(cloud.points, mapped, atol=1e-9)
            assert len(cloud) == len(epoch_cloud)

    def test_perturbation_fixed_per_point_across_budgets(self):
        scene = generate_scene(SceneSpec(seed=22, n_static=2000, n_frames_per_epoch=10))
        small = mock_joint_inference(
            scene, (fps_temporal(10, 2, 1), fps_temporal(10, 2, 2)), sigma=0.01
        )
        full = mock_joint_inference(scene, all_frames_keyframes(scene), sigma=0.01)
        for key, cloud in small.clouds.items():
            np.testing.assert_array_equal(cloud.points, full.clouds[key].points)

    def test_full_budget_covers_every_frame(self):
        scene = generate_scene(SceneSpec(seed=23, n_static=500, n_frames_per_epoch=6))
        joint = mock_joint_inference(scene, all_frames_keyframes(scene))
        labels = sorted(joint.clouds)
        assert labels == [(e, i) for e in (1, 2) for i in range(1, 7)]

    def test_coarse_stage_recovers_scale_under_perturbation(self):
        # Statistical: with 1% perturbation the pipeline recovers the
        # relative scale within 1% on nearly every seed.
        from cloudchange import PipelineConfig, register_scene

        hits = 0
        for seed in range(20):
            scene = generate_scene(
                SceneSpec(seed=seed + 100, n_static=4000, n_frames_per_epoch=12)
            )
            result = register_scene(
                scene, PipelineConfig(k_keyframes=5, mode="coarse_only"), joint_sigma=0.01
            )
            ratio = result.final_transform.scale / scene.gt_relative.scale
            if abs(ratio - 1.0) < 0.01:
                hits += 1
        assert hits >= 19

    @pytest.mark.parametrize("term", ["sigma", "epoch_bias", "frame_drift"])
    @pytest.mark.parametrize("value", [-0.01, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_error_term(self, term, value):
        scene = generate_scene(SceneSpec(seed=25, n_static=200, n_frames_per_epoch=4))
        with pytest.raises(ValueError, match=f"{term} must be finite and >= 0"):
            mock_joint_inference(scene, all_frames_keyframes(scene), **{term: value})

    def test_keyframe_index_out_of_range(self):
        scene = generate_scene(SceneSpec(seed=24, n_static=200, n_frames_per_epoch=4))
        from cloudchange import KeyframeSet

        bad = (KeyframeSet(1, (1, 9)), KeyframeSet(2, (1, 2)))
        with pytest.raises(ValueError):
            mock_joint_inference(scene, bad)


_CHANGES = st.builds(
    ChangeSpec,
    st.sampled_from(["added", "removed", "moved"]),
    st.integers(1, 40),
    st.tuples(*[st.floats(0.5, 2.0)] * 3),
)
_SPECS = st.builds(
    SceneSpec,
    seed=st.integers(0, 2**32 - 1),
    n_static=st.integers(1, 300),
    n_frames_per_epoch=st.integers(1, 6),
    change_spec=st.lists(_CHANGES, max_size=3).map(tuple),
    noise_sigma=st.floats(0.0, 1e-3),
    edge_noise_fraction=st.floats(0.0, 1.0),
    edge_noise_elongation=st.floats(0.0, 0.5),
)


@given(spec=_SPECS)
def test_a_scene_spec_is_its_scene_json(spec):
    # Moved displacements of at least 0.5 per axis clear 10x any drawn noise.
    assert SceneSpec.from_dict(spec.to_dict()) == spec
    scene, twin = generate_scene(spec), generate_scene(spec)
    assert scene.spec == spec
    assert scene.spec == twin.spec and hash(scene.spec) == hash(twin.spec)
