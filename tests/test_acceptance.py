"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is either computed by an independent oracle inside the
test (brute force, hand construction, the generating transform) or asserted
as an exact structural property.  Statistical criteria state their trial
counts and required pass rates explicitly and run on fixed seeds.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from cloudchange import (
    PipelineConfig,
    PointCloud,
    Sim3Transform,
    apply_transform,
    build_index,
    change_scores,
    classify_changes,
    compose_relative,
    fine_stage,
    lower_median,
    median_confidence_mask,
    purify,
    register_scene,
    robust_extent,
    umeyama,
    voxel_downsample_indices,
    voxel_grid_params,
)
from cloudchange.cli import main as cli_main
from cloudchange.metrics import ate, transform_error
from cloudchange.pipeline import RunReport
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene

from conftest import random_rotation, random_sim3


def _report(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: PASS{suffix}")


def _combined_error(estimated, ground_truth, extent: float) -> float:
    err = transform_error(estimated, ground_truth)
    return (
        err["scale_ratio_error"]
        + math.radians(err["rotation_deg"])
        + err["translation_norm"] / extent
    )


def test_criterion_01_umeyama_exactness():
    """1000 noise-free trials recover the generating transform to 1e-9;
    a 100k-point fit stays under 50 ms."""
    for trial in range(1000):
        rng = np.random.default_rng([1001, trial])
        gt = random_sim3(rng)
        src = rng.normal(size=(rng.integers(10, 200), 3))
        est = umeyama(src, gt.apply(src))
        assert abs(est.scale - gt.scale) <= 1e-9 * gt.scale
        assert np.abs(est.rotation - gt.rotation).max() <= 1e-9
        assert np.linalg.norm(est.translation - gt.translation) <= 1e-9 * (
            1.0 + np.linalg.norm(gt.translation)
        )

    rng = np.random.default_rng(1002)
    big_src = rng.normal(size=(100_000, 3))
    big_tgt = random_sim3(rng).apply(big_src)
    umeyama(big_src, big_tgt)  # warm-up
    elapsed = min(
        _timed(lambda: umeyama(big_src, big_tgt)) for _ in range(5)
    )
    assert elapsed < 0.050, f"100k-point fit took {elapsed * 1e3:.1f} ms"
    _report(1, "Umeyama exactness", f"1000 trials, 100k fit {elapsed * 1e3:.1f} ms")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_composition_equivalence():
    """compose_relative equals numeric inverse-then-apply to 1e-12 relative
    over 1000 seeded trials."""
    for trial in range(1000):
        rng = np.random.default_rng([1003, trial])
        t1, t2 = random_sim3(rng), random_sim3(rng)
        rel = compose_relative(t1, t2)
        pts = rng.normal(size=(20, 3))
        expected = t2.inverse().apply(t1.apply(pts))
        err = np.linalg.norm(rel.apply(pts) - expected, axis=1)
        assert (err < 1e-12 * (1.0 + np.linalg.norm(pts, axis=1))).all()
    _report(2, "Composition equivalence", "1000 trials at 1e-12")


def test_criterion_03_coarse_stage_recovery():
    """100 seeded scenes (10k static points, scale ratio in [0.2, 5],
    1% correspondence noise, K=5, M=5000): scale error < 1%, rotation
    < 1 degree, translation < 3 sigma * extent, in at least 95 seeds."""
    sigma = 0.01
    passes = 0
    for trial in range(100):
        rng = np.random.default_rng([1004, trial])
        ratio = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        t1 = Sim3Transform(math.sqrt(ratio), random_rotation(rng), rng.uniform(-5, 5, 3))
        t2 = Sim3Transform(1.0 / math.sqrt(ratio), random_rotation(rng), rng.uniform(-5, 5, 3))
        scene = generate_scene(
            SceneSpec(
                seed=trial,
                n_static=10_000,
                n_frames_per_epoch=20,
                noise_sigma=0.002,
            ),
            (t1, t2),
        )
        config = PipelineConfig(k_keyframes=5, mode="coarse_only")
        result = register_scene(scene, config, joint_sigma=sigma)
        err = transform_error(result.final_transform, scene.gt_relative)
        extent_t2 = robust_extent(scene.cloud_t2.points)
        ok = (
            err["scale_ratio_error"] < 0.01
            and err["rotation_deg"] < 1.0
            and err["translation_norm"] < 3.0 * sigma * extent_t2
        )
        passes += ok
    assert passes >= 95, f"only {passes}/100 seeds within tolerance"
    _report(3, "Coarse-stage recovery", f"{passes}/100 seeds")


def test_criterion_04_monotonicity_guarantee(monkeypatch):
    """Over 200 randomized configurations, including adversarial scenes
    where every point changed, the median all-point NN residual under the
    returned translation never exceeds the coarse residual.  Exact check,
    zero tolerance."""
    checked = 0
    for trial in range(200):
        rng = np.random.default_rng([1005, trial])
        n = int(rng.integers(120, 1200))
        kind = trial % 4
        source_pts = rng.uniform(0.0, 10.0, size=(n, 3))
        if kind == 0:
            # Related scene: static subset plus displaced changes.
            changed = rng.uniform(size=n) < rng.uniform(0.0, 0.6)
            target_pts = source_pts + rng.normal(0.0, 0.02, size=(n, 3))
            target_pts[changed] += rng.uniform(1.0, 3.0, 3)
        elif kind == 1:
            # Adversarial: every point moved, unrelated target.
            target_pts = rng.uniform(0.0, 10.0, size=(n, 3))
        elif kind == 2:
            # Grid structure with partial overlap.
            side = int(round(n ** (1 / 3))) + 2
            grid = np.stack(
                np.meshgrid(*[np.linspace(0, 10, side)] * 3, indexing="ij"), -1
            ).reshape(-1, 3)
            source_pts = grid[: n]
            target_pts = grid[rng.permutation(len(grid))[: n]]
        else:
            # Heavily clustered target.
            centers = rng.uniform(0, 10, size=(5, 3))
            target_pts = centers[rng.integers(0, 5, n)] + rng.normal(0, 0.3, (n, 3))
        coarse = Sim3Transform(
            math.exp(rng.normal(0.0, 0.05)),
            random_rotation(np.random.default_rng([1006, trial]))
            if rng.uniform() < 0.3
            else np.eye(3),
            rng.normal(0.0, rng.uniform(0.01, 1.0), 3),
        )
        min_static = 1 if rng.uniform() < 0.5 else 100
        monkeypatch.setattr("cloudchange.fine.MIN_STATIC_POINTS", min_static)
        source = PointCloud(source_pts)
        target = PointCloud(target_pts)
        result = fine_stage(source, target, coarse)

        final = result.transform
        index = build_index(target)
        d_final, _ = index.query(apply_transform(final, source).points)
        d_coarse, _ = index.query(apply_transform(coarse, source).points)
        assert lower_median(d_final) <= lower_median(d_coarse), f"trial {trial} degraded"
        checked += 1
    assert checked == 200
    _report(4, "Monotonicity guarantee", "200/200 runs, exact")


def test_criterion_05_fine_stage_recovery():
    """Coarse translation perturbed by a known delta of up to 5% of extent
    with ~22% changed points: the refined translation lands within
    max(1e-6, 3 sigma / sqrt(n_static)) * extent of the truth in at least
    95 of 100 seeds."""
    sigma_fraction = 0.0015
    passes = 0
    for trial in range(100):
        rng = np.random.default_rng([1007, trial])
        grid = np.stack(
            np.meshgrid(*[np.linspace(0.0, 10.0, 9)] * 3, indexing="ij"), -1
        ).reshape(-1, 3)
        removed = rng.uniform(0.0, 2.0, size=(200, 3)) + np.array([18.0, 4.0, 4.0])
        source = PointCloud(np.vstack([grid, removed]))
        extent = robust_extent(grid)
        target = PointCloud(grid + rng.normal(0.0, sigma_fraction * extent, grid.shape))

        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        delta = rng.uniform(0.01, 0.05) * extent * direction
        coarse = Sim3Transform(1.0, np.eye(3), delta)

        result = fine_stage(source, target, coarse)
        tolerance = max(1e-6, 3.0 * sigma_fraction / math.sqrt(max(result.n_static, 1)))
        if result.accepted_refinement and (
            np.linalg.norm(result.transform.translation) < tolerance * extent
        ):
            passes += 1
    assert passes >= 95, f"only {passes}/100 seeds within tolerance"
    _report(5, "Fine-stage recovery", f"{passes}/100 seeds")


def _downsampled_with_labels(cloud, labels):
    keep = np.nonzero(median_confidence_mask(cloud.confidence))[0]
    filtered = cloud.select(keep)
    voxel_keep = voxel_downsample_indices(filtered, voxel_grid_params(filtered))
    return filtered.select(voxel_keep), labels[keep[voxel_keep]]


def test_criterion_06_purification_purity():
    """Scenes with 20% changed points displaced far beyond the noise: at
    least 95% of the extracted static set is truly static, in every one of
    20 seeded scenes.  A 99-point scene verifiably returns the coarse
    translation through the small-static-set guard."""
    for trial in range(20):
        scene = generate_scene(
            SceneSpec(
                seed=2000 + trial,
                n_static=4000,
                n_frames_per_epoch=12,
                noise_sigma=0.002,
                edge_noise_fraction=0.15,
                change_spec=(
                    ChangeSpec("moved", 600, (1.2, 0.7, 0.3)),
                    ChangeSpec("removed", 400),
                ),
            )
        )
        coarse = register_scene(
            scene, PipelineConfig(mode="coarse_only"), joint_sigma=0.003
        ).final_transform
        down1, labels1 = _downsampled_with_labels(scene.cloud_t1, scene.labels_t1)
        down2, _ = _downsampled_with_labels(scene.cloud_t2, scene.labels_t2)
        purification = purify(apply_transform(coarse, down1), build_index(down2))
        static_labels = labels1[purification.static_mask]
        purity = float((~static_labels).mean())
        assert purity >= 0.95, f"scene {trial}: purity {purity:.3f}"

    # Guard: 99 points keep the coarse translation exactly.
    rng = np.random.default_rng(2099)
    pts = rng.uniform(0.0, 10.0, size=(99, 3))
    coarse = Sim3Transform(1.0, np.eye(3), np.array([0.05, -0.02, 0.01]))
    result = fine_stage(PointCloud(pts), PointCloud(pts), coarse)
    assert not result.accepted_refinement
    assert (result.transform.translation == coarse.translation).all()
    _report(6, "Purification purity", "20/20 scenes >= 95%, 99-point guard holds")


def test_criterion_07_change_detection_quality():
    """Inserted, removed and moved objects at tau_ratio 0.01 reach per-point
    F1 >= 0.90 against ground truth; a static-only scene stays below 1%
    changed when aligned and exceeds 50% under a 5 tau misalignment."""
    scene = generate_scene(
        SceneSpec(
            seed=3001,
            n_static=8000,
            n_frames_per_epoch=15,
            noise_sigma=0.0015,
            change_spec=(
                ChangeSpec("added", 500),
                ChangeSpec("removed", 400),
                ChangeSpec("moved", 600, (1.1, 0.8, 0.4)),
            ),
        )
    )
    result = register_scene(scene, PipelineConfig(), joint_sigma=0.002)
    aligned = apply_transform(result.final_transform, scene.cloud_t1)
    change_map = classify_changes(change_scores(aligned, scene.cloud_t2), tau_ratio=0.01)
    predicted = np.concatenate([change_map.forward_labels, change_map.backward_labels])
    truth = np.concatenate([scene.labels_t1, scene.labels_t2])
    tp = int((predicted & truth).sum())
    fp = int((predicted & ~truth).sum())
    fn = int((~predicted & truth).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.90, f"F1 {f1:.3f}"

    static_scene = generate_scene(SceneSpec(seed=3002, n_static=6000, noise_sigma=0.0015))
    aligned = apply_transform(static_scene.gt_relative, static_scene.cloud_t1)
    good = classify_changes(
        change_scores(aligned, static_scene.cloud_t2), tau_ratio=0.01
    )
    assert good.changed_fraction < 0.01, f"aligned fraction {good.changed_fraction:.4f}"

    shift = 5.0 * good.tau * np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    shifted = PointCloud(aligned.points + shift, aligned.confidence)
    bad = classify_changes(
        change_scores(shifted, static_scene.cloud_t2), tau_ratio=0.01
    )
    assert bad.changed_fraction > 0.5, f"misaligned fraction {bad.changed_fraction:.4f}"
    _report(
        7,
        "Change-detection quality",
        f"F1 {f1:.3f}, aligned {good.changed_fraction:.2%}, misaligned {bad.changed_fraction:.2%}",
    )


@pytest.fixture(scope="module")
def sweep_scene():
    return generate_scene(
        SceneSpec(
            seed=3,
            n_static=10_000,
            n_frames_per_epoch=30,
            noise_sigma=0.002,
            change_spec=(
                ChangeSpec("moved", 1500, (1.2, 0.6, 0.3)),
                ChangeSpec("added", 800),
            ),
        )
    )


def test_criterion_08_keyframe_budget_saturation(sweep_scene):
    """On a fixed scene, sweeping K in {2, 3, 5, 9, 20, all}: the transform
    error at K=5 is within 15% of the all-frames error, and coarse-stage
    time grows at most linearly in K."""
    mock = {"joint_sigma": 0.02, "epoch_bias": 0.012}
    extent_t2 = robust_extent(sweep_scene.cloud_t2.points)
    budgets = (2, 3, 5, 9, 20, 30)
    errors, times = {}, {}
    for k in budgets:
        config = PipelineConfig(k_keyframes=k, mode="coarse_only")
        result = register_scene(sweep_scene, config, **mock)
        errors[k] = _combined_error(result.final_transform, sweep_scene.gt_relative, extent_t2)
        times[k] = min(
            register_scene(sweep_scene, config, **mock).timings["coarse_s"]
            for _ in range(3)
        )
    assert errors[5] <= 1.15 * errors[30], (
        f"error at K=5 ({errors[5]:.4f}) not within 15% of all-frames ({errors[30]:.4f})"
    )
    # At-most-linear growth, with slack for constant overhead and timer noise.
    assert times[30] <= 3.0 * (30 / 5) * times[5] + 0.005, (
        f"coarse time grew super-linearly: {times}"
    )
    _report(
        8,
        "Keyframe-budget saturation",
        f"err(5)/err(all) = {errors[5] / errors[30]:.3f}, "
        f"time {times[2] * 1e3:.1f} -> {times[30] * 1e3:.1f} ms",
    )


def test_criterion_08b_ablation_table_never_negative(sweep_scene):
    """The full-pipeline ablation table reports a non-negative improvement
    in every cell, because rejected refinements revert exactly."""
    from cloudchange.metrics import ablation_sweep

    rows = ablation_sweep(
        sweep_scene,
        [2, 3, 5, 9, 20, 30],
        ("coarse_only", "full"),
        PipelineConfig(),
        joint_sigma=0.02,
        epoch_bias=0.012,
    )
    for row in rows:
        assert row["delta_pct"] >= 0.0, f"K={row['k']} delta {row['delta_pct']:.3f}"
    deltas = ", ".join(f"K{row['k']}:{row['delta_pct']:+.1f}%" for row in rows)
    _report(8, "Ablation table all-nonnegative", deltas)


def test_criterion_09_brute_force_oracle_equivalence():
    """The exact NN index and change_scores match exhaustive implementations
    exactly; ATE matches an independent implementation to 1e-9."""
    rng = np.random.default_rng(4001)
    src = PointCloud(rng.normal(size=(500, 3)))
    tgt = rng.normal(size=(500, 3))
    dist, idx = build_index(PointCloud(tgt)).query(src.points)
    all_d = np.sqrt(np.sum((src.points[:, None, :] - tgt[None, :, :]) ** 2, axis=2))
    assert (idx == np.argmin(all_d, axis=1)).all()
    assert (dist == all_d[np.arange(500), idx]).all()

    a = rng.normal(size=(400, 3))
    b = rng.normal(size=(450, 3))
    scored_forward, scored_backward, _ = change_scores(PointCloud(a), PointCloud(b))
    forward = np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)).min(1)
    backward = np.sqrt(np.sum((b[:, None, :] - a[None, :, :]) ** 2, axis=2)).min(1)
    assert (scored_forward == forward).all()
    assert (scored_backward == backward).all()

    # ATE against an independently written alignment + RMSE.
    scene = generate_scene(SceneSpec(seed=4002, n_static=300, n_frames_per_epoch=25))
    estimated = Sim3Transform(
        scene.gt_relative.scale * 1.01,
        scene.gt_relative.rotation,
        scene.gt_relative.translation + 0.05,
    )
    pred1, pred2 = scene.predicted_trajectory(1), scene.predicted_trajectory(2)
    gt = (scene.trajectory_t1, scene.trajectory_t2)
    value = ate((pred1.transformed(estimated), pred2), gt)

    pred_centers = np.concatenate([estimated.apply(pred1.centers), pred2.centers])
    gt_centers = np.concatenate([t.centers for t in gt])
    mu_p, mu_g = pred_centers.mean(0), gt_centers.mean(0)
    pc, gc = pred_centers - mu_p, gt_centers - mu_g
    cov = gc.T @ pc / len(pc)
    u, d, vt = np.linalg.svd(cov)
    s = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[2, 2] = -1.0
    rot = u @ s @ vt
    scale = np.trace(np.diag(d) @ s) / ((pc**2).sum() / len(pc))
    t = mu_g - scale * rot @ mu_p
    aligned = scale * pred_centers @ rot.T + t
    expected = float(np.sqrt(np.mean(np.sum((aligned - gt_centers) ** 2, axis=1))))
    assert value == pytest.approx(expected, abs=1e-9)
    _report(9, "Brute-force oracle equivalence", "NN exact, changes exact, ATE 1e-9")


def test_criterion_10_determinism_and_round_trips(tmp_path):
    """Identical seeds produce byte-identical run reports outside the timing
    section; PLY write-read round trips are lossless."""
    scene_dir, spec = tmp_path / "scene", tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 42}))
    assert cli_main(["synth", "--spec", str(spec), "--out", str(scene_dir)]) == 0
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert (
            cli_main(
                [
                    "register",
                    "--t1",
                    str(scene_dir / "e1"),
                    "--t2",
                    str(scene_dir / "e2"),
                    "--joint",
                    str(scene_dir / "joint"),
                    "--report",
                    str(path),
                ]
            )
            == 0
        )
        data = json.loads(path.read_text())
        data.pop("timing")
        reports.append(json.dumps(data, sort_keys=True).encode())
    assert reports[0] == reports[1]

    # PLY round trip (float32-representable payload).
    from cloudchange.ply import read_ply, write_ply

    rng = np.random.default_rng(4003)
    cloud = PointCloud(
        rng.uniform(-10, 10, size=(1000, 3)).astype(np.float32).astype(np.float64),
        rng.uniform(0, 1, 1000).astype(np.float32).astype(np.float64),
        color=rng.integers(0, 256, (1000, 3), dtype=np.uint8),
    )
    for binary in (True, False):
        path = tmp_path / f"rt_{binary}.ply"
        write_ply(cloud, path, binary=binary)
        back = read_ply(path)
        assert (back.points == cloud.points).all()
        assert (back.confidence == cloud.confidence).all()
        assert (back.color == cloud.color).all()
    _report(10, "Determinism & round trips", "reports byte-identical, PLY lossless")
