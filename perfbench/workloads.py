"""The benchmark's workloads: scene set-up, the timed unit, and its checks.

Every workload runs one unit of work per synthetic scene pair.  ``setup``
builds the unit's inputs outside the timed region, ``run`` does the timed
work and ``check`` verifies the outputs and digests the deterministic ones.
Calls into cloudchange go through module attributes (``pipeline.register_epochs``
rather than an imported name) so that the traced pass, which patches those
attributes, sees the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from cloudchange import bundles, changes, cli, cloud, geometry, keyframes, metrics, pipeline, ply, synthetic

FRAMES_PER_EPOCH = 30
# Joint-oracle error model shared by every workload.
ERROR_MODEL = {"joint_sigma": 0.005, "epoch_bias": 0.005, "frame_drift": 0.005}
SWEEP_K = (2, 3, 5, 9, 20, 30)
TAU_RATIO = 0.01

# Gross-failure limits.  They sit far outside the spread seen across seeds
# (transform_err about 0.01-0.05, ate_rel about 0.001-0.005), so only a
# broken alignment trips them.
MAX_TRANSFORM_ERR = 0.25
MAX_ATE_REL = 0.05
# Points per direction whose change score is checked against a brute-force
# nearest-neighbour scan.
SPOT_CHECKS = 50


class CheckFailed(Exception):
    """A unit produced an output that fails the benchmark's correctness checks."""


def scene_spec(seed: int, n_static: int) -> synthetic.SceneSpec:
    return synthetic.SceneSpec(
        seed=seed,
        n_static=n_static,
        n_frames_per_epoch=FRAMES_PER_EPOCH,
        change_spec=(
            synthetic.ChangeSpec("added", round(0.05 * n_static)),
            synthetic.ChangeSpec("removed", round(0.04 * n_static)),
            synthetic.ChangeSpec("moved", round(0.0625 * n_static), (1.0, 0.8, 0.3)),
        ),
        noise_sigma=0.002,
        edge_noise_fraction=0.15,
        edge_noise_elongation=0.3,
    )


def mock_joint(scene):
    return synthetic.mock_joint_inference(
        scene,
        synthetic.all_frames_keyframes(scene),
        sigma=ERROR_MODEL["joint_sigma"],
        epoch_bias=ERROR_MODEL["epoch_bias"],
        frame_drift=ERROR_MODEL["frame_drift"],
    )


def detect(frames1: list, frames2: list, transform):
    """Change detection the way ``cloudchange detect`` runs it, in memory."""
    aligned = geometry.apply_transform(transform, cloud.PointCloud.concatenate(frames1))
    t1 = cloud.filter_by_median_confidence(aligned)
    t2 = cloud.filter_by_median_confidence(cloud.PointCloud.concatenate(frames2))
    change_map, stats = pipeline.detect_changes(t1, t2, tau_ratio=TAU_RATIO)
    colored = changes.colorize(change_map, t1, t2)
    return change_map, stats, colored


def transform_err(err: dict, scene) -> float:
    """Scale-ratio error + rotation (rad) + translation error / extent, from
    the components ``metrics.transform_error`` returns.

    The translation lives in epoch 2's frame, so it is divided by the scene
    extent expressed in that frame.
    """
    extent_t2 = scene.extent / scene.epoch_transforms[1].scale
    return (
        err["scale_ratio_error"]
        + math.radians(err["rotation_deg"])
        + err["translation_norm"] / extent_t2
    )


def change_f1(scene, forward: np.ndarray, backward: np.ndarray, conf1, conf2) -> float:
    """F1 of the union of both directions' labels on the confidence-filtered clouds."""
    truth = np.concatenate(
        [
            scene.labels_t1[cloud.median_confidence_mask(conf1)],
            scene.labels_t2[cloud.median_confidence_mask(conf2)],
        ]
    )
    predicted = np.concatenate([forward, backward])
    if len(truth) != len(predicted):
        raise CheckFailed("change labels do not line up with the filtered clouds")
    hits = int(np.count_nonzero(predicted & truth))
    return 2.0 * hits / (int(predicted.sum()) + int(truth.sum()))


def check_fine(report: dict):
    """The never-degrade guarantee: the returned translation is either an
    accepted refinement that lowered the median residual, or the coarse one.

    On a rejected refinement ``refined_median_residual`` holds the rejected
    candidate's residual, which may exceed the coarse one; what must hold is
    that the coarse translation was kept.
    """
    fine = report["fine"]
    if fine is None:
        raise CheckFailed("full mode produced no fine-stage result")
    if fine["accepted_refinement"]:
        if not fine["refined_median_residual"] < fine["coarse_median_residual"]:
            raise CheckFailed("an accepted refinement did not lower the median residual")
        kept = fine["translation"]
    else:
        kept = report["coarse"]["relative"]["translation"]
    if report["final_transform"]["translation"] != kept:
        raise CheckFailed("the final translation is neither the accepted refinement nor the coarse one")


def check_quality(quality: dict):
    for name, value in quality.items():
        if not math.isfinite(value):
            raise CheckFailed(f"{name} is not finite: {value}")
    if quality["transform_err"] > MAX_TRANSFORM_ERR:
        raise CheckFailed(f"transform_err {quality['transform_err']:.4g} above {MAX_TRANSFORM_ERR}")
    if quality["ate_rel"] > MAX_ATE_REL:
        raise CheckFailed(f"ate_rel {quality['ate_rel']:.4g} above {MAX_ATE_REL}")


def check_scores(change_map, colored: tuple, seed: int):
    """Compare a seeded sample of change scores with a brute-force scan.

    The index returns exact nearest neighbours and recomputes each distance
    with the same expression, so the scores must match bit for bit.
    """
    rng = np.random.default_rng(seed)
    directions = (
        (change_map.forward_scores, colored[0].points, colored[1].points),
        (change_map.backward_scores, colored[1].points, colored[0].points),
    )
    for scores, queries, targets in directions:
        for i in rng.choice(len(queries), size=min(SPOT_CHECKS, len(queries)), replace=False):
            exact = np.sqrt(np.sum((targets - queries[i]) ** 2, axis=1)).min()
            if scores[i] != exact:
                raise CheckFailed(f"change score {scores[i]!r} differs from brute force {exact!r}")


def stats_json(stats: dict) -> str:
    """``change_stats.json`` exactly as ``cloudchange detect`` writes it."""
    return json.dumps(stats, sort_keys=True, indent=2) + "\n"


def colored_ply_bytes(colored: tuple, workdir: Path) -> list:
    """The two coloured change PLYs as the CLI would write them, as bytes."""
    workdir.mkdir(parents=True, exist_ok=True)
    blobs = []
    for name, colored_cloud in zip(("changes_t1.ply", "changes_t2.ply"), colored):
        path = workdir / name
        ply.write_ply(colored_cloud, path)
        blobs.append(path.read_bytes())
        path.unlink()
    return blobs


def digest(parts: list) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part.encode() if isinstance(part, str) else part
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def check_in_memory(scene, out: dict, ate_rel: float, workdir: Path, extra_parts=()) -> tuple:
    """Checks and digest shared by the workloads that detect in memory."""
    report = pipeline.RunReport.from_registration(out["result"])
    check_fine(report.to_dict())
    change_map = out["change_map"]
    error = metrics.transform_error(out["result"].final_transform, scene.gt_relative)
    quality = {
        "transform_err": transform_err(error, scene),
        "ate_rel": ate_rel,
        "change_f1": change_f1(
            scene,
            change_map.forward_labels,
            change_map.backward_labels,
            scene.cloud_t1.confidence,
            scene.cloud_t2.confidence,
        ),
    }
    check_quality(quality)
    check_scores(change_map, out["colored"], scene.spec.seed)
    parts = [*extra_parts, report.to_json(include_timing=False), stats_json(out["stats"])]
    parts += colored_ply_bytes(out["colored"], workdir)
    return quality, digest(parts)


class PairInMemory:
    """One pair through register_epochs and an in-memory detect."""

    name = "pair_100k"

    def __init__(self, n_static: int = 100_000):
        self.n_static = n_static

    def setup(self, seed: int, workdir: Path) -> dict:
        scene = synthetic.generate_scene(scene_spec(seed, self.n_static))
        return {
            "scene": scene,
            "frames1": scene.epoch_frames(1),
            "frames2": scene.epoch_frames(2),
            "joint": mock_joint(scene),
            "workdir": workdir,
        }

    def run(self, inputs: dict, recorder) -> dict:
        start = time.perf_counter()
        result = pipeline.register_epochs(inputs["frames1"], inputs["frames2"], inputs["joint"])
        registered = time.perf_counter()
        change_map, stats, colored = detect(
            inputs["frames1"], inputs["frames2"], result.final_transform
        )
        end = time.perf_counter()
        return {
            "times": {"unit_s": end - start, "register_s": registered - start, "detect_s": end - registered},
            "result": result,
            "change_map": change_map,
            "stats": stats,
            "colored": colored,
        }

    def check(self, inputs: dict, out: dict) -> tuple:
        scene = inputs["scene"]
        ate_m = metrics.evaluate_scene_run(scene, out["result"]).ate_m
        return check_in_memory(scene, out, ate_m / scene.extent, inputs["workdir"])


class AblationSweep:
    """One keyframe-budget sweep, then a default-budget registration and detect."""

    name = "ablate_sweep"

    def __init__(self, n_static: int = 100_000):
        self.n_static = n_static

    def setup(self, seed: int, workdir: Path) -> dict:
        scene = synthetic.generate_scene(scene_spec(seed, self.n_static))
        return {"scene": scene, "workdir": workdir}

    def run(self, inputs: dict, recorder) -> dict:
        scene = inputs["scene"]
        config = pipeline.PipelineConfig()
        start = time.perf_counter()
        rows = metrics.ablation_sweep(
            scene, SWEEP_K, modes=("coarse_only", "full"), config=config, **ERROR_MODEL
        )
        result = pipeline.register_scene(scene, config, **ERROR_MODEL)
        registered = time.perf_counter()
        change_map, stats, colored = detect(
            scene.epoch_frames(1), scene.epoch_frames(2), result.final_transform
        )
        end = time.perf_counter()
        # Coarse-only and full registrations differ several-fold in time, so
        # the median of the twelve would jump between the two groups; the
        # mean is the sweep's registration time per call.
        per_call = [row[key] for row in rows for key in ("time_coarse_s", "time_full_s")]
        return {
            "times": {
                "unit_s": end - start,
                "register_s": statistics.fmean(per_call),
                "detect_s": end - registered,
            },
            "rows": rows,
            "result": result,
            "change_map": change_map,
            "stats": stats,
            "colored": colored,
        }

    def check(self, inputs: dict, out: dict) -> tuple:
        scene = inputs["scene"]
        rows = out["rows"]
        if [row["k"] for row in rows] != list(SWEEP_K):
            raise CheckFailed("sweep rows do not match the requested budgets")
        for row in rows:
            for key in ("ate_coarse", "ate_full", "delta_pct"):
                if not math.isfinite(row[key]):
                    raise CheckFailed(f"sweep row k={row['k']} has non-finite {key}")
        deterministic_rows = [
            {key: value for key, value in row.items() if not key.startswith("time_")} for row in rows
        ]
        return check_in_memory(
            scene,
            out,
            statistics.fmean(row["ate_full"] for row in rows) / scene.extent,
            inputs["workdir"],
            extra_parts=[json.dumps(deterministic_rows, sort_keys=True)],
        )


def _without_wall_clock(data: dict) -> dict:
    """A report or metrics file with its wall-clock values removed.

    ``eval`` copies the registration time into ``metrics``, so that key is
    dropped along with the ``timing`` section.
    """
    data = dict(data)
    data.pop("timing", None)
    data.pop("registration_time_s", None)
    if isinstance(data.get("metrics"), dict):
        data["metrics"] = _without_wall_clock(data["metrics"])
    return data


class CliFiles:
    """One pair through files: ``register``, ``detect`` and ``eval`` in process."""

    name = "cli_files"

    def __init__(self, n_static: int = 100_000):
        self.n_static = n_static

    def setup(self, seed: int, workdir: Path) -> dict:
        scene = synthetic.generate_scene(scene_spec(seed, self.n_static))
        scene_dir = workdir / "scene"
        bundles.write_scene_dir(scene, scene_dir)
        # Replace the exported joint clouds with ASCII files carrying the
        # error model, as an external joint reconstruction would deliver
        # them: one per keyframe the default budget selects, the frames
        # register_epochs reads.
        joint_dir = scene_dir / "joint"
        shutil.rmtree(joint_dir)
        joint_dir.mkdir()
        k = pipeline.PipelineConfig().k_keyframes
        wanted = {
            (epoch_id, index)
            for epoch_id in (1, 2)
            for index in keyframes.fps_temporal(FRAMES_PER_EPOCH, k, epoch_id=epoch_id).indices
        }
        for (epoch_id, index), joint_cloud in mock_joint(scene).clouds.items():
            if (epoch_id, index) in wanted:
                path = joint_dir / f"e{epoch_id}_frame_{index:04d}.ply"
                ply.write_ply(joint_cloud, path, binary=False)
        return {"scene": scene, "dir": scene_dir}

    def _cli(self, recorder, name: str, argv: list):
        with recorder.span(name), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise CheckFailed(f"cloudchange {argv[0]} exited with {code}")

    def run(self, inputs: dict, recorder) -> dict:
        d = inputs["dir"]
        t1, t2, report = d / "e1", d / "e2", d / "report.json"
        start = time.perf_counter()
        self._cli(recorder, "cli.register",
                  ["register", "--t1", t1, "--t2", t2, "--joint", d / "joint", "--report", report])
        registered = time.perf_counter()
        self._cli(recorder, "cli.detect",
                  ["detect", "--t1", t1, "--t2", t2, "--report", report, "--out", d / "out"])
        detected = time.perf_counter()
        self._cli(recorder, "cli.eval", ["eval", "--report", report, "--scene", d])
        end = time.perf_counter()
        return {
            "times": {
                "unit_s": end - start,
                "register_s": registered - start,
                "detect_s": detected - registered,
            }
        }

    def check(self, inputs: dict, out: dict) -> tuple:
        scene, d = inputs["scene"], inputs["dir"]
        report = json.loads((d / "report.json").read_text())
        scores = json.loads((d / "metrics.json").read_text())
        stats_text = (d / "out" / "change_stats.json").read_text()
        check_fine(report)

        # Recompute the change map in process from the same files; the CLI's
        # statistics must match it exactly.
        frames1 = bundles.read_epoch_dir(d / "e1")
        frames2 = bundles.read_epoch_dir(d / "e2")
        transform = pipeline.RunReport.read(d / "report.json").final_sim3()
        change_map, stats, colored = detect(frames1, frames2, transform)
        if stats_json(stats) != stats_text:
            raise CheckFailed("detect statistics differ from an in-process recomputation")
        conf1 = np.concatenate([f.confidence for f in frames1])
        conf2 = np.concatenate([f.confidence for f in frames2])

        quality = {
            "transform_err": transform_err(scores["transform_error"], scene),
            "ate_rel": scores["ate_m"] / scene.extent,
            "change_f1": change_f1(
                scene, change_map.forward_labels, change_map.backward_labels, conf1, conf2
            ),
        }
        check_quality(quality)
        check_scores(change_map, colored, scene.spec.seed)
        parts = [
            json.dumps(_without_wall_clock(report), sort_keys=True),
            stats_text,
            (d / "out" / "changes_t1.ply").read_bytes(),
            (d / "out" / "changes_t2.ply").read_bytes(),
            json.dumps(_without_wall_clock(scores), sort_keys=True),
        ]
        return quality, digest(parts)


WORKLOADS = {w.name: w for w in (PairInMemory, AblationSweep, CliFiles)}
