"""Transform algebra and the closed-form similarity fit."""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cloudchange import (
    DegenerateInput,
    Sim3Transform,
    apply_transform,
    compose_relative,
    rotation_angle_deg,
    umeyama,
)
from cloudchange.cloud import PointCloud
from cloudchange.geometry import ROTATE_BLOCK_ROWS, rotate

from conftest import identity_sim3, random_sim3

TASKS = Path("/proc/self/task")


@st.composite
def sim3s(draw) -> Sim3Transform:
    """Sim(3) from a unit quaternion normalised from four draws in [-1, 1],
    a scale in [e^-3, e^3] and a translation in [-10, 10]^3."""
    q = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(4)])
    norm = float(np.linalg.norm(q))
    assume(norm > 0.1)
    w, x, y, z = q / norm
    rotation = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    scale = math.exp(draw(st.floats(-3.0, 3.0)))
    translation = [draw(st.floats(-10.0, 10.0)) for _ in range(3)]
    return Sim3Transform(scale, rotation, translation)


def point_sets(min_rows: int = 1):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_rows, 30), st.just(3)),
        elements=st.floats(-10.0, 10.0),
        fill=st.nothing(),
    )


def _other_thread_ticks() -> dict:
    """CPU ticks (user + system) of every thread of this process but this one."""
    me = threading.get_native_id()
    ticks = {}
    for task in TASKS.iterdir():
        if int(task.name) == me:
            continue
        try:
            stat = (task / "stat").read_text()
        except OSError:  # the thread ended meanwhile
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        ticks[task.name] = int(fields[11]) + int(fields[12])
    return ticks


class TestSim3Transform:
    def test_apply_is_scale_rotate_translate(self, rng):
        t = random_sim3(rng)
        p = rng.normal(size=3)
        expected = t.scale * (t.rotation @ p) + t.translation
        np.testing.assert_allclose(t.apply(p), expected, rtol=1e-15)

    def test_apply_batches_rows(self, rng):
        t = random_sim3(rng)
        pts = rng.normal(size=(7, 3))
        single = np.stack([t.apply(p) for p in pts])
        np.testing.assert_allclose(t.apply(pts), single, rtol=1e-14)

    def test_keeps_its_own_copy_of_the_callers_arrays(self):
        r, t = np.eye(3), np.zeros(3)
        transform = Sim3Transform(1.0, r, t)
        assert r.flags.writeable and t.flags.writeable
        r[0, 0], r[1, 1], t[0] = -1.0, -1.0, 5.0
        assert transform.apply(np.ones(3)).tolist() == [1.0, 1.0, 1.0]
        assert not (transform.rotation.flags.writeable or transform.translation.flags.writeable)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            Sim3Transform(0.0, np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            Sim3Transform(-2.0, np.eye(3), np.zeros(3))

    def test_rejects_reflection(self):
        reflect = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Sim3Transform(1.0, reflect, np.zeros(3))

    def test_rejects_non_orthonormal(self):
        almost = np.eye(3) + 1e-6
        with pytest.raises(ValueError):
            Sim3Transform(1.0, almost, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_translation(self, value):
        with pytest.raises(ValueError, match="translation must be finite"):
            Sim3Transform(1.0, np.eye(3), [0.0, value, 0.0])

    def test_inverse_round_trip(self, rng):
        t = random_sim3(rng)
        pts = rng.normal(size=(20, 3))
        back = t.inverse().apply(t.apply(pts))
        np.testing.assert_allclose(back, pts, atol=1e-10)

    def test_compose_matches_sequential_application(self, rng):
        a, b = random_sim3(rng), random_sim3(rng)
        pts = rng.normal(size=(10, 3))
        np.testing.assert_allclose(
            a.compose(b).apply(pts), a.apply(b.apply(pts)), rtol=1e-12, atol=1e-12
        )

    def test_arrays_are_immutable(self, rng):
        t = random_sim3(rng)
        with pytest.raises(ValueError):
            t.rotation[0, 0] = 2.0
        with pytest.raises(ValueError):
            t.translation[0] = 2.0

    @given(a=sim3s(), b=sim3s(), points=point_sets())
    def test_compose_applies_in_sequence(self, a, b, points):
        expected = a.apply(b.apply(points))
        magnitude = a.scale * (b.scale * 10.0 + 10.0) + 10.0
        np.testing.assert_allclose(
            a.compose(b).apply(points), expected, rtol=0, atol=1e-13 * magnitude
        )

    @given(t=sim3s(), points=point_sets())
    def test_inverse_undoes_apply_either_side(self, t, points):
        # Rounding of t.apply is ~eps * (s * 10 + 10); the inverse divides it by s.
        atol = 1e-13 * (10.0 + 10.0 / t.scale)
        inv = t.inverse()
        np.testing.assert_allclose(inv.apply(t.apply(points)), points, rtol=0, atol=atol)
        np.testing.assert_allclose(t.compose(inv).apply(points), points, rtol=0, atol=atol)
        np.testing.assert_allclose(inv.compose(t).apply(points), points, rtol=0, atol=atol)


class TestRotate:
    B = ROTATE_BLOCK_ROWS

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_bit_equal_to_one_product(self, rng, rows):
        # A block of other rounding may hold a single row, whose three outputs
        # round alike by chance; many draws make a miss vanishingly rare.
        for _ in range(16):
            t = random_sim3(rng)
            points = rng.normal(size=(rows, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(rows, 1))
            product = points @ t.rotation.T
            assert np.array_equal(rotate(points, t.rotation), product)
            assert np.array_equal(t.apply(points), t.scale * product + t.translation)

    def test_single_vector(self, rng):
        t = random_sim3(rng)
        p = rng.normal(size=3)
        assert rotate(p, t.rotation).shape == (3,)
        assert np.array_equal(rotate(p, t.rotation), p @ t.rotation.T)
        assert np.array_equal(t.apply(p), t.scale * (p @ t.rotation.T) + t.translation)

    @pytest.mark.skipif(not TASKS.is_dir(), reason="needs Linux /proc/self/task")
    def test_apply_leaves_no_thread_busy(self, rng):
        # An epoch-sized product handed to OpenBLAS's worker threads left them
        # spinning for ~150 ms of CPU after the call, against the KD-tree
        # builds and queries that follow it.
        t = random_sim3(rng)
        points = rng.normal(size=(257_000, 3))
        before = _other_thread_ticks()
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            time.sleep(0.05)
            now = _other_thread_ticks()
            if now == before:
                break
            before = now
        t.apply(points)
        time.sleep(0.2)
        gained = {
            tid: ticks - before.get(tid, 0)
            for tid, ticks in _other_thread_ticks().items()
            if ticks > before.get(tid, 0)
        }
        assert not gained, f"CPU ticks gained by other threads: {gained}"


class TestUmeyama:
    def test_identity_case(self, rng):
        pts = rng.normal(size=(4, 3))
        est = umeyama(pts, pts)
        assert est.scale == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(est.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(est.translation, np.zeros(3), atol=1e-12)

    def test_pure_translation(self, rng):
        pts = rng.normal(size=(6, 3))
        est = umeyama(pts, pts + np.array([1.0, 2.0, 3.0]))
        assert est.scale == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(est.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(est.translation, [1.0, 2.0, 3.0], atol=1e-12)

    def test_recovers_random_transform(self, rng):
        # Oracle: the generating transform itself.
        for _ in range(20):
            gt = random_sim3(rng)
            src = rng.normal(size=(100, 3))
            est = umeyama(src, gt.apply(src))
            assert abs(est.scale - gt.scale) <= 1e-9 * gt.scale
            assert np.abs(est.rotation - gt.rotation).max() <= 1e-9
            assert np.linalg.norm(est.translation - gt.translation) <= 1e-9 * (
                1.0 + np.linalg.norm(gt.translation)
            )

    @given(t=sim3s(), source=point_sets(min_rows=4))
    def test_recovers_any_sim3(self, t, source):
        # A set spread in at least two directions keeps the fit's rounding far
        # below the tolerances.
        centered = source - source.mean(axis=0)
        assume(np.linalg.svd(centered, compute_uv=False)[1] > 1.0)
        est = umeyama(source, t.apply(source))
        assert abs(est.scale - t.scale) <= 1e-9 * t.scale
        assert np.abs(est.rotation - t.rotation).max() <= 1e-9
        assert np.abs(est.translation - t.translation).max() <= 1e-9 * (1.0 + t.scale)

    def test_reflection_correction_on_planar_points(self, rng):
        # Planar sets exercise the det<0 branch; the result must still be a
        # proper rotation that maps source onto target.
        src = rng.normal(size=(40, 3))
        src[:, 2] = 0.0
        gt = random_sim3(rng)
        est = umeyama(src, gt.apply(src))
        assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(est.apply(src), gt.apply(src), atol=1e-9)

    def test_too_few_points(self, rng):
        pts = rng.normal(size=(2, 3))
        with pytest.raises(DegenerateInput):
            umeyama(pts, pts)

    def test_collinear_source(self):
        line = np.stack([np.linspace(0.0, 1.0, 10)] * 3, axis=1)
        with pytest.raises(DegenerateInput):
            umeyama(line, line + 1.0)

    def test_optimality_against_perturbed_candidates(self, rng):
        src = rng.normal(size=(60, 3))
        gt = random_sim3(rng)
        tgt = gt.apply(src) + rng.normal(0.0, 0.05, size=(60, 3))
        est = umeyama(src, tgt)

        def residual(t: Sim3Transform) -> float:
            return float(np.sum((t.apply(src) - tgt) ** 2))

        best = residual(est)
        for _ in range(1000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-0.05, 0.05)
            k = np.array(
                [
                    [0.0, -axis[2], axis[1]],
                    [axis[2], 0.0, -axis[0]],
                    [-axis[1], axis[0], 0.0],
                ]
            )
            wiggle = (
                np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
            )
            candidate = Sim3Transform(
                est.scale * np.exp(rng.uniform(-0.05, 0.05)),
                wiggle @ est.rotation,
                est.translation + rng.normal(0.0, 0.05, 3),
            )
            assert best <= residual(candidate) + 1e-12

    def test_equivariance_under_source_pretransform(self, rng):
        # Pre-transforming the source by G shifts the estimate to est o G^-1.
        src = rng.normal(size=(80, 3))
        gt = random_sim3(rng)
        tgt = gt.apply(src) + rng.normal(0.0, 0.01, size=(80, 3))
        g = random_sim3(rng)
        est_direct = umeyama(src, tgt)
        est_pre = umeyama(g.apply(src), tgt)
        recomposed = est_pre.compose(g)
        assert abs(recomposed.scale - est_direct.scale) <= 1e-9 * est_direct.scale
        assert np.abs(recomposed.rotation - est_direct.rotation).max() <= 1e-9
        assert np.linalg.norm(recomposed.translation - est_direct.translation) <= 1e-9 * (
            1.0 + np.linalg.norm(est_direct.translation)
        )


class TestComposeRelative:
    def test_identity_second_returns_first(self, rng):
        t1 = random_sim3(rng)
        rel = compose_relative(t1, identity_sim3())
        assert rel.scale == pytest.approx(t1.scale, rel=1e-15)
        np.testing.assert_allclose(rel.rotation, t1.rotation, atol=1e-15)
        np.testing.assert_allclose(rel.translation, t1.translation, atol=1e-15)

    def test_equal_inputs_cancel(self, rng):
        t = random_sim3(rng)
        rel = compose_relative(t, t)
        assert rel.scale == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(rel.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(rel.translation, np.zeros(3), atol=1e-12)

    def test_matches_numeric_inverse_then_apply(self, rng):
        # Oracle: invert t2 numerically and chain the applications.
        for _ in range(10):
            t1, t2 = random_sim3(rng), random_sim3(rng)
            rel = compose_relative(t1, t2)
            pts = rng.normal(size=(50, 3))
            expected = t2.inverse().apply(t1.apply(pts))
            err = np.linalg.norm(rel.apply(pts) - expected, axis=1)
            bound = 1e-12 * (1.0 + np.linalg.norm(pts, axis=1))
            assert (err < bound).all()

    def test_scale_ratio_inverts_under_swap(self, rng):
        t1, t2 = random_sim3(rng), random_sim3(rng)
        forward = compose_relative(t1, t2).scale
        backward = compose_relative(t2, t1).scale
        assert forward * backward == pytest.approx(1.0, abs=1e-12)


class TestApplyTransform:
    def test_identity_is_bitwise(self, rng):
        cloud = PointCloud(rng.normal(size=(30, 3)), rng.uniform(0, 1, 30))
        out = apply_transform(identity_sim3(), cloud)
        assert (out.points == cloud.points).all()

    def test_pure_scaling(self):
        cloud = PointCloud(np.array([[1.0, 1.0, 1.0]]))
        out = apply_transform(Sim3Transform(2.0, np.eye(3), np.zeros(3)), cloud)
        np.testing.assert_array_equal(out.points, [[2.0, 2.0, 2.0]])

    def test_preserves_attributes(self, rng):
        cloud = PointCloud(
            rng.normal(size=(10, 3)),
            rng.uniform(0, 1, 10),
            color=rng.integers(0, 255, (10, 3), dtype=np.uint8),
        )
        out = apply_transform(random_sim3(rng), cloud)
        assert (out.confidence == cloud.confidence).all()
        assert (out.color == cloud.color).all()

    def test_round_trip_through_inverse(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        t = random_sim3(rng)
        back = apply_transform(t.inverse(), apply_transform(t, cloud))
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-10)


class TestRotationAngleDeg:
    def test_rotation_angle(self, rng):
        axis = np.array([0.0, 0.0, 1.0])
        angle = 0.3
        k = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        r = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
        assert rotation_angle_deg(r) == pytest.approx(np.degrees(angle), abs=1e-9)
        assert rotation_angle_deg(np.eye(3)) == pytest.approx(0.0, abs=1e-9)
