"""Command-line interface.

Subcommands::

    synth      scene spec JSON, seed included (or defaults) -> scene directory
    register   two epoch directories + joint keyframe directory ->
               relative transform + run report JSON; --k and --mode
               set the PipelineConfig
    detect     two epoch directories + register output -> colored change
               PLYs + statistics, scored on the confidence-filtered clouds
    eval       run report + scene ground truth -> metrics JSON
    ablate     scene.json + gt.json + keyframe budgets -> CSV table

``ablate`` regenerates the scene from those two files alone, so its table is
:func:`metrics.ablation_sweep` on the generated scene under the default
PipelineConfig: scene.json gives the generator parameters and the
``joint_sigma`` that ``synth`` exported the joint clouds with, gt.json the two
epoch transforms.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import bundles
from .changes import DEFAULT_TAU_RATIO, colorize
from .cloud import PointCloud
from .errors import CloudChangeError, DegenerateInput, InvalidSpec, SchemaError, check_non_negative
from .geometry import apply_transform, compose_relative
from .metrics import MetricsReport, ablation_sweep, ate, check_tracks, rte, transform_error
from .pipeline import MODES, PipelineConfig, RunReport, detect_changes, register_epochs
from .ply import check_coordinate_range
from .synthetic import SceneSpec, generate_scene

USAGE_ERROR = 1
DATA_ERROR = 2

# The scene ``synth`` writes when no --spec is given; a spec file overrides
# any of these keys.  ``joint_sigma`` is the Gaussian perturbation of the
# exported joint clouds (see ``synthetic.mock_joint_inference``).
DEFAULT_SCENE = {
    "seed": 0,
    "n_static": 10000,
    "n_frames_per_epoch": 30,
    "change_spec": [
        {"kind": "added", "n_points": 500, "displacement": [0.0, 0.0, 0.0]},
        {"kind": "removed", "n_points": 400, "displacement": [0.0, 0.0, 0.0]},
        {"kind": "moved", "n_points": 600, "displacement": [1.0, 0.8, 0.3]},
    ],
    "noise_sigma": 0.002,
    "edge_noise_fraction": 0.15,
    "edge_noise_elongation": 0.3,
    "joint_sigma": 0.0,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


class _UsageError(Exception):
    """A flag value a command rejects before it reads or writes anything."""


@contextmanager
def _flag_checks():
    """Turn a ValueError raised while checking flags into a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(exc) from None


@contextmanager
def _carried_by(path):
    """Data that the transforms of the file at ``path`` carry out of float
    range, or collapse so that no similarity fits it, is a SchemaError naming
    it: a numpy overflow inside the block, a ValueError from a value that
    rejects the result, or a DegenerateInput from a fit."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, ValueError) as exc:
        raise SchemaError(f"{path}: its transform takes the data out of float range ({exc})") from None
    except DegenerateInput:
        raise SchemaError(f"{path}: its transform collapses the data; no similarity fits it") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="cloudchange", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene directory")
    p_synth.add_argument("--spec", type=Path, help="scene spec JSON (defaults used if omitted)")
    p_synth.add_argument("--out", type=Path, required=True, help="output scene directory")

    p_reg = sub.add_parser("register", help="estimate the relative transform between two epochs")
    p_reg.add_argument("--t1", type=Path, required=True, help="epoch 1 directory")
    p_reg.add_argument("--t2", type=Path, required=True, help="epoch 2 directory")
    p_reg.add_argument("--joint", type=Path, required=True, help="joint keyframe cloud directory")
    p_reg.add_argument("--report", type=Path, help="write the run report JSON here")
    defaults = PipelineConfig()
    p_reg.add_argument("--k", type=int, default=defaults.k_keyframes, help="keyframe budget per epoch")
    p_reg.add_argument("--mode", choices=MODES, default=defaults.mode)

    p_det = sub.add_parser("detect", help="compute the 3D change map", description=(
        "Scores epoch 1, moved by the report's final transform, against epoch 2, both without "
        "their below-median-confidence points; already aligned clouds go in as two epoch "
        "directories and a report whose final_transform is the identity."))
    p_det.add_argument("--t1", type=Path, required=True, help="epoch 1 directory")
    p_det.add_argument("--t2", type=Path, required=True, help="epoch 2 directory")
    p_det.add_argument("--report", type=Path, required=True,
                       help="register output holding the transform")
    p_det.add_argument("--tau-ratio", type=float, default=DEFAULT_TAU_RATIO)
    p_det.add_argument("--out", type=Path, required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="trajectory metrics against ground truth")
    p_eval.add_argument("--report", type=Path, required=True, help="register run report")
    p_eval.add_argument("--scene", type=Path, required=True, help="scene directory with gt")
    p_eval.add_argument("--out", type=Path, help="metrics JSON (default: scene metrics.json)")

    p_abl = sub.add_parser("ablate", help="keyframe-budget sweep on a regenerated scene")
    p_abl.add_argument("--scene", type=Path, required=True,
                       help="scene directory; only its scene.json and gt.json are read")
    p_abl.add_argument("--k-list", type=str, required=True,
                       help="comma-separated keyframe budgets, e.g. 2,3,5,9")
    p_abl.add_argument("--out", type=Path, required=True, help="output CSV")
    p_abl.add_argument("--modes", type=str, default=",".join(MODES))

    return parser


def _scene_spec(path) -> tuple:
    """(spec, joint_sigma) of the spec file at ``path`` (if any) over
    ``DEFAULT_SCENE``; a library error names ``path``."""
    data = dict(DEFAULT_SCENE)
    if path is not None:
        overrides = bundles.load_json(path)
        if not isinstance(overrides, dict):
            raise InvalidSpec(f"{path}: scene spec must be a JSON object")
        # A scene.json written by synth is a valid spec file.
        if "format_version" in overrides:
            bundles.check_version(overrides.pop("format_version"), path)
        data.update(overrides)
    try:
        joint_sigma = check_non_negative("joint_sigma", data.pop("joint_sigma"), InvalidSpec)
        return SceneSpec.from_dict(data), joint_sigma
    except InvalidSpec as exc:
        raise InvalidSpec(f"{path}: {exc}") from None


def _cmd_synth(args) -> int:
    spec, joint_sigma = _scene_spec(args.spec)
    scene = generate_scene(spec)
    bundles.write_scene_dir(scene, args.out, joint_sigma=joint_sigma)
    print(f"wrote scene (seed {spec.seed}, {len(scene.cloud_t1)} + {len(scene.cloud_t2)} points) to {args.out}")
    return 0


def _cmd_register(args) -> int:
    with _flag_checks():
        config = PipelineConfig(k_keyframes=args.k, mode=args.mode)
    frames1 = bundles.read_epoch_dir(args.t1)
    frames2 = bundles.read_epoch_dir(args.t2)
    joint = bundles.read_joint_dir(args.joint)

    result = register_epochs(frames1, frames2, joint, config)
    report = RunReport.from_registration(
        result, inputs={"t1": str(args.t1), "t2": str(args.t2), "joint": str(args.joint)}
    )
    if args.report is not None:
        report.write(args.report)
    final = result.final_transform
    print(
        f"relative transform: scale {final.scale:.6g}, "
        f"translation [{final.translation[0]:.6g}, {final.translation[1]:.6g}, "
        f"{final.translation[2]:.6g}], registration {result.timings['registration_s']:.3f}s"
    )
    return 0


def _cmd_detect(args) -> int:
    with _flag_checks():
        check_non_negative("--tau-ratio", args.tau_ratio)
    report = RunReport.read(args.report)
    transform = report.final_sim3()
    t1 = PointCloud.concatenate(bundles.read_epoch_dir(args.t1))
    t2 = PointCloud.concatenate(bundles.read_epoch_dir(args.t2))
    with _carried_by(args.report):
        aligned_t1 = apply_transform(transform, t1)
        check_coordinate_range(aligned_t1.points, "aligned epoch 1")

    # Low-confidence points are dominated by edge-flying depth noise and
    # would be scored as spurious changes.
    from .cloud import filter_by_median_confidence

    aligned_t1 = filter_by_median_confidence(aligned_t1)
    t2 = filter_by_median_confidence(t2)

    start = time.perf_counter()
    try:
        change_map, stats = detect_changes(aligned_t1, t2, tau_ratio=args.tau_ratio)
    except ValueError as exc:  # tau = ratio x extent overflows
        raise _UsageError(f"--tau-ratio: {exc}") from None
    elapsed = time.perf_counter() - start
    colored_t1, colored_t2 = colorize(change_map, aligned_t1, t2)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    from .ply import write_ply

    write_ply(colored_t1, out / "changes_t1.ply")
    write_ply(colored_t2, out / "changes_t2.ply")
    bundles.write_json(out / "change_stats.json", stats)
    report.record_changes(stats, elapsed=elapsed)
    report.write(args.report)
    print(
        f"changed: {stats['n_forward_changed']} forward + {stats['n_backward_changed']} backward "
        f"of {stats['n_t1_points'] + stats['n_t2_points']} points (tau {stats['tau']:.4g})"
    )
    return 0


def _cmd_eval(args) -> int:
    report = RunReport.read(args.report)
    scene_dir = Path(args.scene)
    gt_path = scene_dir / "gt.json"
    gt = bundles.read_ground_truth(gt_path)
    tracks = []
    for epoch in (1, 2):
        paths = (scene_dir / f"e{epoch}" / "trajectory.json",
                 scene_dir / "gt_trajectories" / f"e{epoch}.json")
        pair = tuple(bundles.read_trajectory(path) for path in paths)
        try:
            check_tracks(*pair, epoch)
        except CloudChangeError as exc:  # the tracks' frames disagree, or are too few
            raise SchemaError(f"{paths[0]} and {paths[1]}: {exc}") from None
        tracks.append(pair)
    (pred1, gt1), (pred2, gt2) = tracks

    estimated = report.final_sim3()
    with _carried_by(args.report):
        predicted = (pred1.transformed(estimated), pred2)
        ate_m, rte_m = ate(predicted, (gt1, gt2)), rte(predicted, (gt1, gt2))
    with _carried_by(gt_path):
        metrics = MetricsReport(
            ate_m=ate_m,
            rte_m=rte_m,
            transform_error=transform_error(estimated, compose_relative(*gt["epoch_transforms"])),
            config=report.config,
        )
    out = args.out if args.out is not None else scene_dir / "metrics.json"
    bundles.write_json(out, metrics.to_dict())
    report.record_metrics(metrics)
    report.write(args.report)
    print(f"ATE {metrics.ate_m:.6g}  RTE {metrics.rte_m:.6g}  -> {out}")
    return 0


def _ablate_scene(directory) -> tuple:
    """(scene, joint_sigma): the scene that ``directory``'s scene.json and the
    transforms of its gt.json generate, and the joint_sigma of scene.json; a
    gt.json header that disagrees with them is a SchemaError."""
    spec, joint_sigma = _scene_spec(directory / "scene.json")
    gt_path = directory / "gt.json"
    gt = bundles.read_ground_truth(gt_path)
    with _carried_by(gt_path):
        scene = generate_scene(spec, gt["epoch_transforms"])
        for epoch_id in (1, 2):
            check_coordinate_range(scene.cloud(epoch_id).points, f"epoch {epoch_id}")
    # JSON numbers round-trip exactly, so files written together agree exactly.
    for key, value in (("seed", spec.seed), ("n_frames", spec.n_frames_per_epoch),
                       ("extent", scene.extent)):
        if gt[key] != value:
            raise SchemaError(f"{gt_path}: {key} is {gt[key]!r}, scene.json gives {value!r}")
    return scene, joint_sigma


def _cmd_ablate(args) -> int:
    try:
        k_values = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad --k-list {args.k_list!r}") from None
    modes = tuple(tok.strip() for tok in args.modes.split(",") if tok.strip())
    if not k_values or not modes:
        raise _UsageError(f"{'--k-list' if not k_values else '--modes'} names no value")
    # Build every swept config up front, so a bad value is a usage error
    # before any scene is read or registered.
    with _flag_checks():
        for k in k_values:
            for mode in modes:
                PipelineConfig(k_keyframes=k, mode=mode)
    scene, joint_sigma = _ablate_scene(args.scene)
    with _carried_by(args.scene / "gt.json"):
        rows = ablation_sweep(scene, k_values, modes, PipelineConfig(), joint_sigma=joint_sigma)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "register": _cmd_register,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CloudChangeError, OSError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
