"""Command-line interface.

Subcommands::

    synth      scene spec JSON (or defaults) -> scene directory
    register   two epoch directories + joint keyframe directory ->
               relative transform + run report JSON
    detect     aligned inputs or a register output -> colored change PLYs
               + statistics
    eval       run report + scene ground truth -> metrics JSON
    ablate     scene.json + gt.json + keyframe budgets -> CSV table

``ablate`` regenerates the scene from those two files alone, so its table is
:func:`metrics.ablation_sweep` on the generated scene.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import bundles
from .changes import DEFAULT_TAU_RATIO, colorize
from .cloud import PointCloud
from .errors import CloudChangeError, InvalidSpec, SchemaError, check_non_negative
from .geometry import apply_transform, compose_relative
from .metrics import (
    MetricsReport, ablation_sweep, ate, combine_trajectories, rte, stack_epochs, transform_error,
)
from .pipeline import MODES, PipelineConfig, RunReport, detect_changes, register_epochs
from .synthetic import SceneSpec, generate_scene

USAGE_ERROR = 1
DATA_ERROR = 2

# The scene ``synth`` writes when no --spec is given; a spec file overrides
# any of these keys.
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


_DEFAULTS = PipelineConfig()
# Numeric PipelineConfig flags: flag name, config field, help; the type and
# default come from the field's default.
_CONFIG_FLAGS = (
    ("k", "k_keyframes", "keyframe budget per epoch"),
    ("cap", "correspondence_cap", "correspondence cap per epoch"),
    ("alpha", "alpha", "static-set threshold multiplier"),
    ("grid", "grid_resolution", "voxel grid resolution"),
    ("seed", "seed", "subsampling seed"),
)


def _add_config_flags(parser: argparse.ArgumentParser):
    for flag, field, help_text in _CONFIG_FLAGS:
        default = getattr(_DEFAULTS, field)
        parser.add_argument(f"--{flag}", type=type(default), default=default, help=help_text)
    parser.add_argument("--mode", choices=MODES, default=_DEFAULTS.mode)


def _config_from_args(args) -> PipelineConfig:
    fields = {field: getattr(args, flag) for flag, field, _ in _CONFIG_FLAGS}
    return PipelineConfig(mode=args.mode, **fields)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cloudchange", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene directory")
    p_synth.add_argument("--spec", type=Path, help="scene spec JSON (defaults used if omitted)")
    p_synth.add_argument("--seed", type=int, help="override the spec seed")
    p_synth.add_argument("--out", type=Path, required=True, help="output scene directory")
    p_synth.add_argument("--joint-sigma", type=float, default=0.0,
                         help="Gaussian perturbation of the exported joint clouds")
    p_synth.add_argument("--joint-warp", type=float, default=0.0,
                         help="systematic warp amplitude of the exported joint clouds")

    p_reg = sub.add_parser("register", help="estimate the relative transform between two epochs")
    p_reg.add_argument("--t1", type=Path, required=True, help="epoch 1 directory")
    p_reg.add_argument("--t2", type=Path, required=True, help="epoch 2 directory")
    p_reg.add_argument("--joint", type=Path, required=True, help="joint keyframe cloud directory")
    p_reg.add_argument("--report", type=Path, help="write the run report JSON here")
    _add_config_flags(p_reg)

    p_det = sub.add_parser("detect", help="compute the 3D change map")
    p_det.add_argument("--t1", type=Path, help="epoch 1 directory (with --report)")
    p_det.add_argument("--t2", type=Path, help="epoch 2 directory (with --report)")
    p_det.add_argument("--report", type=Path, help="register output holding the transform")
    p_det.add_argument("--aligned-ply", type=Path, help="already-aligned epoch 1 cloud")
    p_det.add_argument("--target-ply", type=Path, help="epoch 2 cloud for --aligned-ply")
    p_det.add_argument("--tau-ratio", type=float, default=DEFAULT_TAU_RATIO)
    p_det.add_argument(
        "--no-filter-confidence",
        action="store_true",
        help="score the raw clouds instead of dropping below-median-confidence points first",
    )
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
    p_abl.add_argument("--joint-sigma", type=float, default=0.0)
    p_abl.add_argument("--joint-warp", type=float, default=0.0)
    p_abl.add_argument("--seed", type=int, default=_DEFAULTS.seed)

    return parser


def _scene_spec(path, seed=None) -> SceneSpec:
    """The spec file at ``path`` (if any) over ``DEFAULT_SCENE``, ``seed``
    overriding; a library error names ``path``."""
    data = dict(DEFAULT_SCENE)
    if path is not None:
        overrides = bundles.load_json(path)
        if not isinstance(overrides, dict):
            raise InvalidSpec(f"{path}: scene spec must be a JSON object")
        # A scene.json written by synth is a valid spec file.
        if "format_version" in overrides:
            bundles.check_version(overrides.pop("format_version"), path)
        data.update(overrides)
    if seed is not None:
        data["seed"] = seed
    try:
        return SceneSpec.from_dict(data)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{path}: {exc}") from None


def _cmd_synth(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    with _flag_checks():
        check_non_negative("--joint-sigma", args.joint_sigma)
        check_non_negative("--joint-warp", args.joint_warp)
    spec = _scene_spec(args.spec, args.seed)
    scene = generate_scene(spec)
    bundles.write_scene_dir(
        scene, args.out, joint_sigma=args.joint_sigma, warp_amplitude=args.joint_warp
    )
    print(f"wrote scene (seed {spec.seed}, {len(scene.cloud_t1)} + {len(scene.cloud_t2)} points) to {args.out}")
    return 0


def _cmd_register(args) -> int:
    with _flag_checks():
        config = _config_from_args(args)
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
    report = None
    if args.aligned_ply is not None or args.target_ply is not None:
        if args.aligned_ply is None or args.target_ply is None:
            raise _UsageError("--aligned-ply and --target-ply go together")
        from .ply import read_ply

        aligned_t1 = read_ply(args.aligned_ply)
        t2 = read_ply(args.target_ply)
    elif args.t1 is not None and args.t2 is not None and args.report is not None:
        report = RunReport.read(args.report)
        transform = report.final_sim3()
        t1 = PointCloud.concatenate(bundles.read_epoch_dir(args.t1))
        t2 = PointCloud.concatenate(bundles.read_epoch_dir(args.t2))
        aligned_t1 = apply_transform(transform, t1)
    else:
        raise _UsageError("provide --t1/--t2/--report or --aligned-ply/--target-ply")

    if not args.no_filter_confidence:
        # Low-confidence points are dominated by edge-flying depth noise and
        # would be scored as spurious changes.
        from .cloud import filter_by_median_confidence

        aligned_t1 = filter_by_median_confidence(aligned_t1)
        t2 = filter_by_median_confidence(t2)

    start = time.perf_counter()
    change_map, stats = detect_changes(aligned_t1, t2, tau_ratio=args.tau_ratio)
    elapsed = time.perf_counter() - start
    colored_t1, colored_t2 = colorize(change_map, aligned_t1, t2)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    from .ply import write_ply

    write_ply(colored_t1, out / "changes_t1.ply")
    write_ply(colored_t2, out / "changes_t2.ply")
    bundles.write_json(out / "change_stats.json", stats)
    if report is not None:
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
    gt = bundles.read_ground_truth(scene_dir / "gt.json")
    pred1 = bundles.read_trajectory(scene_dir / "e1" / "trajectory.json")
    pred2 = bundles.read_trajectory(scene_dir / "e2" / "trajectory.json")
    gt1 = bundles.read_trajectory(scene_dir / "gt_trajectories" / "e1.json")
    gt2 = bundles.read_trajectory(scene_dir / "gt_trajectories" / "e2.json")

    estimated = report.final_sim3()
    predicted = combine_trajectories(pred1, pred2, estimated)
    ground_truth = stack_epochs(gt1, gt2)
    metrics = MetricsReport(
        ate_m=ate(predicted, ground_truth),
        rte_m=rte(predicted, ground_truth),
        transform_error=transform_error(estimated, compose_relative(*gt["epoch_transforms"])),
        config=report.config,
    )
    out = args.out if args.out is not None else scene_dir / "metrics.json"
    bundles.write_json(out, metrics.to_dict())
    report.record_metrics(metrics)
    report.write(args.report)
    print(f"ATE {metrics.ate_m:.6g}  RTE {metrics.rte_m:.6g}  -> {out}")
    return 0


def _ablate_scene(directory):
    """The scene that ``directory``'s scene.json and the transforms of its
    gt.json generate; a gt.json header that disagrees with it is a SchemaError."""
    spec = _scene_spec(directory / "scene.json")
    gt_path = directory / "gt.json"
    gt = bundles.read_ground_truth(gt_path)
    scene = generate_scene(replace(spec, epoch_transforms=gt["epoch_transforms"]))
    # JSON numbers round-trip exactly, so files written together agree exactly.
    for key, value in (("seed", spec.seed), ("n_frames", spec.n_frames_per_epoch),
                       ("extent", scene.extent)):
        if gt[key] != value:
            raise SchemaError(f"{gt_path}: {key} is {gt[key]!r}, scene.json gives {value!r}")
    return scene


def _cmd_ablate(args) -> int:
    try:
        k_values = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad --k-list {args.k_list!r}") from None
    modes = tuple(tok.strip() for tok in args.modes.split(",") if tok.strip())
    if not k_values or not modes:
        raise _UsageError(f"{'--k-list' if not k_values else '--modes'} names no value")
    # Build every swept config and check the joint error model up front, so
    # a bad value is a usage error before any scene is read or registered.
    with _flag_checks():
        config = PipelineConfig(seed=args.seed)
        for k in k_values:
            for mode in modes:
                config.replace(k_keyframes=k, mode=mode)
        check_non_negative("--joint-sigma", args.joint_sigma)
        check_non_negative("--joint-warp", args.joint_warp)
    rows = ablation_sweep(
        _ablate_scene(args.scene),
        k_values,
        modes=modes,
        config=config,
        joint_sigma=args.joint_sigma,
        warp_amplitude=args.joint_warp,
    )
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
