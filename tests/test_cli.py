"""Command-line interface: subcommands, exit codes, output files."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudchange import Sim3Transform, compose_relative
from cloudchange.bundles import (
    FORMAT_VERSION, read_ground_truth, scene_ground_truth_dict, write_json, write_scene_dir,
)
from cloudchange.cli import main
from cloudchange.metrics import ablation_sweep
from cloudchange.pipeline import MODES, PipelineConfig, RunReport
from cloudchange.ply import read_ply
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene

from conftest import random_rotation


# joint_sigma values that a spec file or scene.json may not hold.
MALFORMED_JOINT_SIGMAS = {
    "negative_joint_sigma": -0.01,
    "string_joint_sigma": "0.01",
    "boolean_joint_sigma": True,
    "non_finite_joint_sigma": float("inf"),
}


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    (root / "spec.json").write_text(json.dumps({"seed": 7}))
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "s")]) == 0
    return root / "s"


class TestSynth:
    def test_writes_expected_layout(self, scene_dir):
        assert (scene_dir / "scene.json").exists()
        assert (scene_dir / "gt.json").exists()
        assert (scene_dir / "e1" / "frame_0001.ply").exists()
        assert (scene_dir / "e2" / "trajectory.json").exists()
        assert (scene_dir / "joint" / "e1_frame_0001.ply").exists()
        assert (scene_dir / "gt_trajectories" / "e1.json").exists()

    def test_spec_file_and_seed_override(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"seed": 9, "n_static": 500, "n_frames_per_epoch": 4,
                        "change_spec": [], "noise_sigma": 0.0,
                        "edge_noise_fraction": 0.0})
        )
        out = tmp_path / "scene"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        echo = json.loads((out / "scene.json").read_text())
        assert echo["seed"] == 9
        assert echo["n_static"] == 500

    def test_synth_over_another_scene_is_data_error(self, scene_dir, tmp_path, capsys):
        # A 10-frame scene over a 30-frame one would leave frames 11-30 for
        # register to mix into it.
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        before = {path: path.read_bytes() for path in scene.rglob("*") if path.is_file()}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 2, "n_frames_per_epoch": 10, "n_static": 3000}))
        assert main(["synth", "--spec", str(spec_path), "--out", str(scene)]) == 2
        line = _assert_one_error_line(capsys, "synth")
        assert f"{scene / 'e1' / 'frame_0011.ply'}: " in line
        assert {path: path.read_bytes() for path in scene.rglob("*") if path.is_file()} == before

    def test_spec_round_trip(self, tmp_path):
        spec = SceneSpec(
            seed=3, n_static=400, n_frames_per_epoch=4,
            change_spec=(ChangeSpec("moved", 50, (1.0, 0.5, 0.2)),),
        )
        assert SceneSpec.from_dict(spec.to_dict()) == spec
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec.to_dict(), "joint_sigma": 0.01}))
        out = tmp_path / "scene"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        echo = json.loads((out / "scene.json").read_text())
        assert echo == {"format_version": FORMAT_VERSION, **spec.to_dict(), "joint_sigma": 0.01}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"change_spec": [{"kind": "added"}]},
            {"n_static": "many"},
            {"n_statc": 500},
            {"seed": -1},
            {"n_static": 0},
            {"change_spec": [{"kind": "warped", "n_points": 5}]},
            *({"joint_sigma": value} for value in MALFORMED_JOINT_SIGMAS.values()),
        ],
        ids=["change_without_n_points", "non_integer_n_static", "unknown_key", "negative_seed",
             "zero_n_static", "unknown_change_kind", *MALFORMED_JOINT_SIGMAS],
    )
    def test_malformed_spec_is_data_error(self, tmp_path, capsys, overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(overrides))
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "s")])
        assert code == 2
        assert f"{spec_path}: " in _assert_one_error_line(capsys, "synth")
        assert not (tmp_path / "s").exists()

    def test_repeated_spec_key_is_data_error(self, tmp_path, capsys):
        # A JSON reader may keep either value; no spec file means either.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"seed": 1, "seed": 5, "n_static": 2000}')
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "s")])
        assert code == 2
        line = _assert_one_error_line(capsys, "synth")
        assert f"{spec_path}: invalid JSON (key 'seed' repeats" in line
        assert not (tmp_path / "s").exists()

    def test_spec_that_is_not_json_names_the_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"seed": ')
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "s")])
        assert code == 2
        line = _assert_one_error_line(capsys, "synth")
        assert f"{spec_path}: invalid JSON" in line


def _assert_one_error_line(capsys, command):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command}: error: "), lines
    return lines[0]


class TestRegister:
    def test_oracle_end_to_end_recovers_gt(self, scene_dir, tmp_path):
        report_path = tmp_path / "r.json"
        code = main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"), "--report", str(report_path),
        ])
        assert code == 0
        report = RunReport.read(report_path)
        estimated = report.final_sim3()
        expected = compose_relative(*read_ground_truth(scene_dir / "gt.json")["epoch_transforms"])
        assert abs(estimated.scale / expected.scale - 1.0) < 1e-3
        assert np.linalg.norm(estimated.translation - expected.translation) < 1e-2

    def test_joint_directory_path(self, scene_dir, tmp_path):
        report_path = tmp_path / "rj.json"
        code = main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"), "--report", str(report_path),
        ])
        assert code == 0
        assert RunReport.read(report_path).coarse is not None

    def test_missing_input_directory_is_data_error(self, scene_dir, tmp_path):
        code = main([
            "register", "--t1", str(tmp_path / "nope"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"),
        ])
        assert code == 2

    def test_colliding_joint_file_names_are_data_error(self, scene_dir, tmp_path, capsys):
        joint = tmp_path / "joint"
        shutil.copytree(scene_dir / "joint", joint)
        shutil.copy(joint / "e1_frame_0001.ply", joint / "e1_frame_01.ply")
        code = main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(joint),
        ])
        assert code == 2
        line = _assert_one_error_line(capsys, "register")
        assert "e1_frame_0001.ply" in line and "e1_frame_01.ply" in line

    def test_missing_joint_flag_is_usage_error(self, scene_dir):
        code = main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
        ])
        assert code == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["register", "--bogus"]) == 1

    @pytest.mark.parametrize("flag, value", [pytest.param("--k", "0", id="--k")])
    def test_zero_config_value_is_usage_error(self, scene_dir, capsys, flag, value):
        code = main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"), flag, value,
        ])
        assert code == 1
        _assert_one_error_line(capsys, "register")

    def test_coarse_only_report_has_no_fine_block(self, scene_dir, tmp_path):
        report_path = tmp_path / "rc.json"
        code = main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"), "--mode", "coarse_only", "--report", str(report_path),
        ])
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["fine"] is None

    def test_byte_identical_reports_excluding_timing(self, scene_dir, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        metrics = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path, metrics_path in zip(paths, metrics):
            assert main([
                "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
                "--joint", str(scene_dir / "joint"), "--report", str(path),
            ]) == 0
            assert main([
                "eval", "--report", str(path), "--scene", str(scene_dir),
                "--out", str(metrics_path),
            ]) == 0
        assert metrics[0].read_bytes() == metrics[1].read_bytes()
        dumps = []
        for path in paths:
            data = json.loads(path.read_text())
            data.pop("timing")
            dumps.append(json.dumps(data, sort_keys=True))
        assert dumps[0] == dumps[1]


@pytest.fixture(scope="module")
def report_data(scene_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("reports") / "r.json"
    assert main([
        "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
        "--joint", str(scene_dir / "joint"), "--report", str(path),
    ]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "command, flags",
    [("register", ("--cap", "0")), ("register", ("--cap", "1")), ("register", ("--cap", "2")),
     ("register", ("--grid", "0")), ("register", ("--grid", "3000000")),
     ("register", ("--seed", "1")), ("register", ("--alpha", "0")),
     ("register", ("--alpha", "inf")), ("ablate", ("--seed", "1")),
     ("detect", ("--aligned-ply", "a.ply")), ("detect", ("--target-ply", "b.ply")),
     ("detect", ("--no-filter-confidence",)), ("synth", ("--seed", "1"))],
    ids=["register--cap", "register--cap-1", "register--cap-2", "register--grid",
         "register--grid-3000000", "register--seed", "register--alpha", "register--alpha-inf",
         "ablate--seed", "detect--aligned-ply", "detect--target-ply",
         "detect--no-filter-confidence", "synth--seed"],
)
def test_removed_knob_is_not_a_flag(scene_dir, tmp_path, capsys, command, flags):
    # The correspondence cap, the subsampling seed, the grid resolution and
    # the static-set threshold multiplier are constants of the method, not
    # settings.  detect always scores the confidence-filtered clouds of two
    # epoch directories, and a scene's seed is in its spec file.
    out = tmp_path / "out"
    argv = {
        "register": ["register", "--t1", scene_dir / "e1", "--t2", scene_dir / "e2",
                     "--joint", scene_dir / "joint", "--report", out],
        "ablate": ["ablate", "--scene", scene_dir, "--k-list", "2", "--out", out],
        "detect": ["detect", "--t1", scene_dir / "e1", "--t2", scene_dir / "e2",
                   "--report", tmp_path / "r.json", "--out", out],
        "synth": ["synth", "--out", out],
    }[command]
    assert main([*map(str, argv), *flags]) == 1
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--t1", "--t2", "--report"])
def test_detect_without_a_required_flag_is_usage_error(scene_dir, report_data, tmp_path, capsys,
                                                       flag):
    report = tmp_path / "r.json"
    write_json(report, report_data)
    before = report.read_bytes()
    argv = {"--t1": scene_dir / "e1", "--t2": scene_dir / "e2", "--report": report,
            "--out": tmp_path / "out"}
    del argv[flag]
    assert main(["detect", *(str(arg) for pair in argv.items() for arg in pair)]) == 1
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [report] and report.read_bytes() == before


def test_report_with_the_removed_config_keys_reads_the_same(scene_dir, report_data, tmp_path):
    # Reports written while the config held the cap, the grid resolution and
    # the seed carry four more keys, which detect and eval pass over.
    removed = {"correspondence_cap": 5000, "grid_resolution": 200, "seed": 0, "rng": "numpy PCG64"}
    old = {**report_data, "config": {**report_data["config"], **removed}}
    outputs = []
    for name, data in (("current", report_data), ("old", old)):
        directory = tmp_path / name
        directory.mkdir()
        report = directory / "r.json"
        write_json(report, data)
        for argv in (
            ["detect", "--t1", scene_dir / "e1", "--t2", scene_dir / "e2", "--report", report,
             "--out", directory / "out"],
            ["eval", "--report", report, "--scene", scene_dir, "--out", directory / "m.json"],
        ):
            assert main([str(arg) for arg in argv]) == 0
        metrics = json.loads((directory / "m.json").read_text())
        assert metrics.pop("config") == data["config"]
        files = ("changes_t1.ply", "changes_t2.ply", "change_stats.json")
        outputs.append(([(directory / "out" / f).read_bytes() for f in files], metrics))
    assert outputs[0] == outputs[1]


def _with_transform(report, **fields):
    transform = {**report["final_transform"], **fields}
    return {**report, "final_transform": {k: v for k, v in transform.items() if v is not None}}


MALFORMED_REPORTS = {
    "missing_scale": lambda r: _with_transform(r, scale=None),
    "integer_version": lambda r: {**r, "format_version": 1},
    "non_orthonormal_rotation": lambda r: _with_transform(
        r, rotation=[[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    ),
    "no_final_transform": lambda r: {k: v for k, v in r.items() if k != "final_transform"},
    "top_level_list": lambda r: [r],
    "string_scale": lambda r: _with_transform(r, scale="2"),
    "boolean_scale": lambda r: _with_transform(r, scale=True),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
@pytest.mark.parametrize("command", ["detect", "eval"])
def test_malformed_report_is_data_error(scene_dir, report_data, tmp_path, capsys, command, case):
    report_path = tmp_path / "bad.json"
    report_path.write_text(json.dumps(MALFORMED_REPORTS[case](report_data)))
    if command == "detect":
        argv = ["detect", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
                "--report", str(report_path), "--out", str(tmp_path / "out")]
    else:
        argv = ["eval", "--report", str(report_path), "--scene", str(scene_dir),
                "--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    assert str(report_path) in _assert_one_error_line(capsys, command)


# Report sections that no field check reads, holding a number JSON cannot
# carry into a result: the literal and where it stands.
NON_FINITE_REPORT_NUMBERS = {
    "residual_rms_nan": ("NaN", ("coarse", "epoch1", "residual_rms")),
    "residual_rms_minus_infinity": ("-Infinity", ("coarse", "epoch1", "residual_rms")),
    "inputs_note_1e400": ("1e400", ("inputs", "note")),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_REPORT_NUMBERS))
@pytest.mark.parametrize("command", ["detect", "eval"])
def test_non_finite_report_number_is_data_error(scene_dir, report_data, tmp_path, capsys,
                                                command, case):
    # The number is rejected as the report is read, before any output is
    # written or the report is rewritten.
    literal, (*keys, last) = NON_FINITE_REPORT_NUMBERS[case]
    data = json.loads(json.dumps(report_data))
    node = data
    for key in keys:
        node = node[key]
    node[last] = "PLACEHOLDER"
    report_path = tmp_path / "bad.json"
    report_path.write_text(json.dumps(data).replace('"PLACEHOLDER"', literal))
    before = report_path.read_bytes()
    if command == "detect":
        argv = ["detect", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
                "--report", str(report_path), "--out", str(tmp_path / "out")]
    else:
        scene = tmp_path / "scene"
        _copy_scene_files(scene_dir, scene, _EVAL_FILES)
        argv = ["eval", "--report", str(report_path), "--scene", str(scene)]
    assert main(argv) == 2
    line = _assert_one_error_line(capsys, command)
    assert f"{report_path}: invalid JSON ({literal} is not a finite number)" in line
    assert report_path.read_bytes() == before
    assert not (tmp_path / "out").exists() and not (tmp_path / "scene" / "metrics.json").exists()


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_repeated_report_key_is_data_error(scene_dir, report_data, tmp_path, capsys, command):
    # A second, identity final_transform after the real one: a reader that
    # kept the last would score the identity.
    identity = Sim3Transform(1.0, np.eye(3), np.zeros(3)).to_dict()
    report_path = tmp_path / "r.json"
    report_path.write_text(
        json.dumps(report_data)[:-1] + f', "final_transform": {json.dumps(identity)}}}'
    )
    before = report_path.read_bytes()
    scene = tmp_path / "scene"
    _copy_scene_files(scene_dir, scene, _EVAL_FILES)
    argv = {"detect": ["detect", "--t1", scene_dir / "e1", "--t2", scene_dir / "e2",
                       "--report", report_path, "--out", tmp_path / "out"],
            "eval": ["eval", "--report", report_path, "--scene", scene]}[command]
    assert main([str(arg) for arg in argv]) == 2
    line = _assert_one_error_line(capsys, command)
    assert f"{report_path}: invalid JSON (key 'final_transform' repeats" in line
    assert report_path.read_bytes() == before
    assert not (tmp_path / "out").exists() and not (scene / "metrics.json").exists()


def _set(path: str, *keys_and_value):
    """Edit of one JSON file: set the value at a key path."""

    def edit(data):
        *keys, last, value = keys_and_value
        node = data
        for key in keys:
            node = node[key]
        node[last] = value

    return path, edit


def _repeat_first_frame_index(data):
    data["poses"][1]["frame_index"] = data["poses"][0]["frame_index"]


def _drop_last_pose(data):
    data["poses"].pop()


def _keep_first_pose(data):
    del data["poses"][1:]


def _epoch_2_tracks(edit_predicted, edit_truth=lambda data: None):
    """Edits of both tracks of epoch 2: a fault between them names both files."""
    return ("e2/trajectory.json", edit_predicted), ("gt_trajectories/e2.json", edit_truth)


def _to_pose_form(data):
    """The rotation-and-translation entries that older trajectory files hold."""
    for pose in data["poses"]:
        center = pose.pop("center")
        pose.update(rotation=np.eye(3).tolist(), translation=[-value for value in center])


# gt.json edits that every reader of the file must reject.
MALFORMED_GT_HEADERS = {
    "boolean_extent": _set("gt.json", "extent", True),
    "fractional_seed": _set("gt.json", "seed", 2.7),
    "string_transform_scale": _set("gt.json", "epoch_transforms", 0, "scale", "2"),
    "boolean_transform_scale": _set("gt.json", "epoch_transforms", 1, "scale", True),
    "overflowing_rotation": _set("gt.json", "epoch_transforms", 0, "rotation", 0, 0, 1e308),
}

MALFORMED_EVAL_INPUTS = {
    "poses_not_a_list": _set("e1/trajectory.json", "poses", 5),
    "pose_not_an_object": _set("e1/trajectory.json", "poses", 0, 5),
    "null_frame_index": _set("e2/trajectory.json", "poses", 0, "frame_index", None),
    "frames_not_increasing": ("e1/trajectory.json", _repeat_first_frame_index),
    "seed_not_a_number": _set("gt.json", "seed", "seven"),
    "n_frames_not_a_number": _set("gt.json", "n_frames", None),
    "extent_not_a_number": _set("gt.json", "extent", [1.0]),
    # Values a lenient reader would truncate or coerce.
    "fractional_frame_index": _set("e1/trajectory.json", "poses", 0, "frame_index", 1.7),
    "boolean_frame_index": _set("gt_trajectories/e1.json", "poses", 0, "frame_index", True),
    "string_center": _set("e2/trajectory.json", "poses", 2, "center", ["1", "2", "3"]),
    "boolean_in_center": _set("e1/trajectory.json", "poses", 0, "center", 1, True),
    "short_center": _set("gt_trajectories/e1.json", "poses", 1, "center", [0.0, 1.0]),
    "non_finite_center": _set("gt_trajectories/e2.json", "poses", 0, "center", 2, float("nan")),
    "pose_form_file": ("e2/trajectory.json", _to_pose_form),
    # Centers share the clouds' float32 range; an overflow then blames the report.
    "far_predicted_center": _set("e1/trajectory.json", "poses", 0, "center", [1e300, 0.0, 0.0]),
    "far_truth_center": _set("gt_trajectories/e2.json", "poses", 3, "center", [0.0, 0.0, -1e300]),
    "tracks_of_different_frames": _epoch_2_tracks(_drop_last_pose),
    "tracks_of_one_pose": _epoch_2_tracks(_keep_first_pose, _keep_first_pose),
    **MALFORMED_GT_HEADERS,
}

_EVAL_FILES = ("gt.json", "e1/trajectory.json", "e2/trajectory.json", "gt_trajectories")


def _copy_scene_files(scene_dir, target, names):
    for name in names:
        (target / name).parent.mkdir(parents=True, exist_ok=True)
        copy = shutil.copytree if (scene_dir / name).is_dir() else shutil.copyfile
        copy(scene_dir / name, target / name)


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


# A warning would print a second stderr line.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_EVAL_INPUTS))
def test_malformed_eval_input_is_data_error(scene_dir, report_data, tmp_path, capsys, case):
    scene = tmp_path / "scene"
    _copy_scene_files(scene_dir, scene, _EVAL_FILES)
    edits = MALFORMED_EVAL_INPUTS[case]
    edits = (edits,) if isinstance(edits[0], str) else edits
    for name, edit in edits:
        _edit_json(scene / name, edit)
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps(report_data))
    argv = ["eval", "--report", str(report_path), "--scene", str(scene),
            "--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    line = _assert_one_error_line(capsys, "eval")
    assert all(name in line for name, _ in edits), line


_ABLATE_FILES = ("scene.json", "gt.json")

MALFORMED_ABLATE_INPUTS = {
    **MALFORMED_GT_HEADERS,
    "unknown_spec_key": _set("scene.json", "bogus", 1),
    "zero_n_static": _set("scene.json", "n_static", 0),
    "unknown_change_kind": _set("scene.json", "change_spec", 0, "kind", "warped"),
    # Older scene.json files hold this since-deleted field; synth writes them again.
    "shared_trajectories": _set("scene.json", "shared_trajectories", False),
    **{case: _set("scene.json", "joint_sigma", value)
       for case, value in MALFORMED_JOINT_SIGMAS.items()},
    # gt.json must describe the scene that scene.json generates.
    "other_extent": _set("gt.json", "extent", 1.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_ABLATE_INPUTS))
def test_malformed_ablate_input_is_data_error(scene_dir, tmp_path, capsys, case):
    scene = tmp_path / "scene"
    _copy_scene_files(scene_dir, scene, _ABLATE_FILES)
    name, edit = MALFORMED_ABLATE_INPUTS[case]
    _edit_json(scene / name, edit)
    out = tmp_path / "t.csv"
    assert main(["ablate", "--scene", str(scene), "--k-list", "2", "--out", str(out)]) == 2
    assert name in _assert_one_error_line(capsys, "ablate")
    assert not out.exists()


# Valid Sim(3)s that carry a command's data beyond float range: the file
# edited, the fields of its transform and the command that reads it.
OVERFLOWING_TRANSFORMS = {
    "detect_scale_1e308": ("detect", "r.json", {"scale": 1e308}),
    # Finite in float64, but beyond float32: a PLY would hold infinities.
    "detect_scale_1e300": ("detect", "r.json", {"scale": 1e300}),
    "eval_scale_1e308": ("eval", "r.json", {"scale": 1e308}),
    "eval_translation_1e308": ("eval", "r.json", {"translation": [1e308, 1e308, 0.0]}),
    "ablate_scale_1e-307": ("ablate", "gt.json", {"scale": 1e-307}),
    "ablate_scale_1e-308": ("ablate", "gt.json", {"scale": 1e-308}),
}


# Valid Sim(3)s that leave a command's data in float range but collapse it
# so far that no similarity fits it any more.
COLLAPSING_TRANSFORMS = {
    "eval_translation_1e20": ("eval", "r.json", {"translation": [1e20, 1e20, 1e20]}),
    "ablate_translation_1e20": (
        "ablate", "gt.json", {"scale": 1.0, "translation": [1e20, 1e20, 1e20]}
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_TRANSFORMS))
def test_overflowing_transform_is_data_error(scene_dir, report_data, tmp_path, capsys, case):
    command, name, fields = OVERFLOWING_TRANSFORMS[case]
    line, named = _run_with_transform(scene_dir, report_data, tmp_path, capsys, command, name, fields)
    assert f"{named}: its transform takes the data out of float range" in line


@pytest.mark.parametrize("case", sorted(COLLAPSING_TRANSFORMS))
def test_collapsing_transform_is_data_error(scene_dir, report_data, tmp_path, capsys, case):
    command, name, fields = COLLAPSING_TRANSFORMS[case]
    line, named = _run_with_transform(scene_dir, report_data, tmp_path, capsys, command, name, fields)
    assert f"{named}: its transform collapses the data" in line


def _run_with_transform(scene_dir, report_data, tmp_path, capsys, command, name, fields):
    """Run ``command`` with ``fields`` set in the transform of the file
    ``name`` (the report, or gt.json's epoch 1), check that it exits 2 having
    written nothing, and return its one error line and the edited file."""
    scene, report, out = tmp_path / "scene", tmp_path / "r.json", tmp_path / "out"
    _copy_scene_files(scene_dir, scene, ("e1", "e2", "gt_trajectories", *_ABLATE_FILES))
    write_json(report, _with_transform(report_data, **fields) if name == "r.json" else report_data)
    if name == "gt.json":
        _edit_json(scene / "gt.json", lambda data: data["epoch_transforms"][0].update(fields))
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    argv = {
        "detect": ["detect", "--t1", scene / "e1", "--t2", scene / "e2", "--report", report,
                   "--out", out],
        "eval": ["eval", "--report", report, "--scene", scene, "--out", out],
        "ablate": ["ablate", "--scene", scene, "--k-list", "2", "--out", out],
    }[command]
    assert main([str(arg) for arg in argv]) == 2
    line = _assert_one_error_line(capsys, command)
    assert not out.exists()
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before
    return line, report if name == "r.json" else scene / "gt.json"


@st.composite
def sim3_dicts(draw):
    """The dict of a Sim(3) that ``Sim3Transform.from_dict`` accepts: a
    log-uniform scale in [1e-300, 1e300], translation components up to
    +-1e300 and a random rotation."""
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    translation = draw(st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3))
    rotation = random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return Sim3Transform(scale, rotation, translation).to_dict()


@pytest.fixture(scope="module")
def fuzz_scene(tmp_path_factory):
    """A small synth scene with a registered report."""
    root = tmp_path_factory.mktemp("transforms")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"seed": 2, "n_static": 400, "n_frames_per_epoch": 4,
                                "change_spec": [{"kind": "added", "n_points": 40}]}))
    assert main(["synth", "--spec", str(spec), "--out", str(root / "s")]) == 0
    report = root / "report.json"
    assert main(["register", "--t1", str(root / "s" / "e1"), "--t2", str(root / "s" / "e2"),
                 "--joint", str(root / "s" / "joint"), "--report", str(report)]) == 0
    return root


@settings(max_examples=30)
@given(transform=sim3_dicts())
def test_any_sim3_in_a_file_is_read_or_a_data_error(fuzz_scene, transform):
    # Each command ends in exit 0 or 2 (a RuntimeWarning is an error here),
    # with one error line naming a file it read on 2 and readable PLYs on 0.
    scene, report, out = fuzz_scene / "s", fuzz_scene / "r.json", fuzz_scene / "out"
    gt = json.loads((scene / "gt.json").read_text())
    gt["epoch_transforms"][0] = transform
    write_json(scene / "gt.json", gt)
    report_data = json.loads((fuzz_scene / "report.json").read_text())
    write_json(report, _with_transform(report_data, **transform))
    shutil.rmtree(out, ignore_errors=True)
    commands = {
        "detect": ["--t1", scene / "e1", "--t2", scene / "e2", "--report", report, "--out", out],
        "eval": ["--report", report, "--scene", scene, "--out", fuzz_scene / "metrics.json"],
        "ablate": ["--scene", scene, "--k-list", "2", "--out", fuzz_scene / "sweep.csv"],
    }
    named = {"detect": (report,), "eval": (report, scene / "gt.json"), "ablate": (scene / "gt.json",)}
    for command, args in commands.items():
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, *map(str, args)])
        lines = stderr.getvalue().splitlines()
        assert (code, lines) == (0, []) or (
            code == 2 and len(lines) == 1 and lines[0].startswith(f"{command}: error: ")
            and any(f"{path}: " in lines[0] for path in named[command])
        ), (command, code, lines)
        for ply in out.glob("*.ply"):
            read_ply(ply)


def _bad_path_argv(case, scene_dir, report, a_file, a_dir, out):
    epochs = ["--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2")]
    return {
        "synth_out_is_file": ["synth", "--out", a_file],
        "detect_out_is_file": ["detect", *epochs, "--report", report, "--out", a_file],
        "register_report_is_dir": [
            "register", *epochs, "--joint", str(scene_dir / "joint"), "--report", a_dir
        ],
        "eval_out_is_dir": ["eval", "--report", report, "--scene", str(scene_dir), "--out", a_dir],
        "ablate_out_is_dir": ["ablate", "--scene", str(scene_dir), "--k-list", "2", "--out", a_dir],
        "eval_report_is_dir": ["eval", "--report", a_dir, "--scene", str(scene_dir), "--out", out],
        "detect_report_is_dir": ["detect", *epochs, "--report", a_dir, "--out", out],
        "synth_spec_is_dir": ["synth", "--spec", a_dir, "--out", out],
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "synth_out_is_file", "detect_out_is_file", "register_report_is_dir", "eval_out_is_dir",
        "ablate_out_is_dir", "eval_report_is_dir", "detect_report_is_dir", "synth_spec_is_dir",
    ],
)
def test_path_of_the_wrong_kind_is_data_error(scene_dir, report_data, tmp_path, capsys, case):
    report = tmp_path / "r.json"
    report.write_text(json.dumps(report_data))
    a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
    a_file.write_text("not a directory\n")
    a_dir.mkdir()
    argv = _bad_path_argv(case, scene_dir, str(report), str(a_file), str(a_dir), str(tmp_path / "o"))
    assert main(argv) == 2
    _assert_one_error_line(capsys, argv[0])


MALFORMED_PLY_HEADERS = {
    "bare_property": "element vertex 1\nproperty float x\nproperty\n",
    "negative_count": "element vertex -2\nproperty float x\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PLY_HEADERS))
def test_malformed_ply_header_is_data_error(scene_dir, report_data, tmp_path, capsys, case):
    epoch = tmp_path / "e1"
    shutil.copytree(scene_dir / "e1", epoch)
    (epoch / "frame_0001.ply").write_text(
        f"ply\nformat ascii 1.0\n{MALFORMED_PLY_HEADERS[case]}end_header\n0\n"
    )
    report = tmp_path / "r.json"
    write_json(report, report_data)
    argv = ["detect", "--t1", str(epoch), "--t2", str(scene_dir / "e2"), "--report", str(report),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "(line " in _assert_one_error_line(capsys, "detect")


class TestDetect:
    def test_detect_from_report(self, scene_dir, tmp_path):
        report_path = tmp_path / "r.json"
        assert main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"), "--report", str(report_path),
        ]) == 0
        out = tmp_path / "changes"
        code = main([
            "detect", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--report", str(report_path), "--out", str(out),
        ])
        assert code == 0
        assert (out / "changes_t1.ply").exists()
        assert (out / "changes_t2.ply").exists()
        stats = json.loads((out / "change_stats.json").read_text())
        assert stats["n_forward_changed"] >= 0
        # The updated report now carries the change section.
        assert json.loads(report_path.read_text())["changes"] is not None

    def test_detect_from_aligned_plys(self, scene_dir, report_data, tmp_path):
        # Through a report that carries the ground-truth relative transform,
        # and, once aligned, through one-frame epoch directories and a report
        # carrying the identity: the change map of the aligned clouds alone.
        from cloudchange import apply_transform, filter_by_median_confidence
        from cloudchange.bundles import read_epoch_dir
        from cloudchange.cloud import PointCloud
        from cloudchange.pipeline import detect_changes
        from cloudchange.ply import write_ply

        gt = read_ground_truth(scene_dir / "gt.json")
        relative = compose_relative(*gt["epoch_transforms"])
        report = tmp_path / "gt_report.json"
        write_json(report, {**report_data, "final_transform": relative.to_dict()})
        code = main([
            "detect", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--report", str(report), "--out", str(tmp_path / "ch"),
        ])
        assert code == 0
        assert (tmp_path / "ch" / "change_stats.json").exists()

        t1 = PointCloud.concatenate(read_epoch_dir(scene_dir / "e1"))
        t2 = PointCloud.concatenate(read_epoch_dir(scene_dir / "e2"))
        for name, cloud in (("a1", apply_transform(relative, t1)), ("a2", t2)):
            (tmp_path / name).mkdir()
            write_ply(cloud, tmp_path / name / "frame_0001.ply")
        identity = Sim3Transform(1.0, np.eye(3), np.zeros(3)).to_dict()
        write_json(report, {**report_data, "final_transform": identity})
        out = tmp_path / "aligned"
        code = main([
            "detect", "--t1", str(tmp_path / "a1"), "--t2", str(tmp_path / "a2"),
            "--report", str(report), "--out", str(out),
        ])
        assert code == 0
        aligned = [filter_by_median_confidence(read_epoch_dir(tmp_path / name)[0])
                   for name in ("a1", "a2")]
        _, stats = detect_changes(*aligned)
        assert json.loads((out / "change_stats.json").read_text()) == stats

    def test_detect_without_inputs_is_usage_error(self, tmp_path):
        assert main(["detect", "--out", str(tmp_path / "x")]) == 1

    def test_overflowing_tau_is_usage_error(self, scene_dir, report_data, tmp_path, capsys):
        # 1e308 passes the flag check, but times the extent it is infinite,
        # which no JSON file can hold.
        report_path = tmp_path / "r.json"
        write_json(report_path, report_data)
        before = report_path.read_bytes()
        out = tmp_path / "changes"
        code = main([
            "detect", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--report", str(report_path), "--out", str(out), "--tau-ratio", "1e308",
        ])
        assert code == 1
        assert "--tau-ratio" in _assert_one_error_line(capsys, "detect")
        assert not out.exists()
        assert report_path.read_bytes() == before


def _nan_frame_scene(scene_dir, tmp_path):
    """Copy of the scene whose e1/frame_0010.ply has a NaN x in vertex 0."""
    copy = tmp_path / "nan_scene"
    shutil.copytree(scene_dir, copy)
    frame = copy / "e1" / "frame_0010.ply"
    data = bytearray(frame.read_bytes())
    body = data.index(b"end_header\n") + len(b"end_header\n")
    data[body : body + 4] = np.float32(np.nan).tobytes()
    frame.write_bytes(bytes(data))
    return copy


class TestNonFiniteInput:
    def test_register_is_data_error(self, scene_dir, tmp_path, capsys):
        scene = _nan_frame_scene(scene_dir, tmp_path)
        code = main([
            "register", "--t1", str(scene / "e1"), "--t2", str(scene / "e2"),
            "--joint", str(scene / "joint"), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        line = _assert_one_error_line(capsys, "register")
        assert "frame_0010.ply: non-finite coordinates" in line and "at point 0" in line
        assert not (tmp_path / "r.json").exists()

    def test_detect_without_confidence_filter_is_data_error(self, scene_dir, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"), "--report", str(report_path),
        ]) == 0
        capsys.readouterr()
        scene = _nan_frame_scene(scene_dir, tmp_path)
        code = main([
            "detect", "--t1", str(scene / "e1"), "--t2", str(scene / "e2"),
            "--report", str(report_path), "--out", str(tmp_path / "ch"),
        ])
        assert code == 2
        line = _assert_one_error_line(capsys, "detect")
        assert "frame_0010.ply: non-finite coordinates" in line


def _far_double_frame(scene_dir, tmp_path, epoch):
    """(scene, frame, point): a copy of the scene whose frame_0010.ply of
    epoch ``epoch`` stores x, y and z as doubles, with its highest-confidence
    point (the one the confidence filter surely keeps) moved to x = 1e300."""
    scene = tmp_path / "far_scene"
    shutil.copytree(scene_dir, scene)
    frame = scene / f"e{epoch}" / "frame_0010.ply"
    cloud = read_ply(frame)
    point = int(np.argmax(cloud.confidence))
    rows = np.empty(len(cloud), dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("c", "<f4")])
    rows["x"], rows["y"], rows["z"] = cloud.points.T
    rows["c"] = cloud.confidence
    rows[point] = (1e300, 0.0, 0.0, rows["c"][point])
    header = (f"ply\nformat binary_little_endian 1.0\nelement vertex {len(cloud)}\n"
              "property double x\nproperty double y\nproperty double z\n"
              "property float confidence\nend_header\n")
    frame.write_bytes(header.encode("ascii") + rows.tobytes())
    return scene, frame, point


@pytest.mark.parametrize("epoch", [1, 2])
@pytest.mark.parametrize("command", ["register", "detect"])
def test_double_coordinate_beyond_float32_is_data_error_naming_the_ply(
    scene_dir, report_data, tmp_path, capsys, command, epoch
):
    # A float32 cloud cannot hold the point, so no later error may blame the
    # report for it or end in writing a change PLY.
    scene, frame, point = _far_double_frame(scene_dir, tmp_path, epoch)
    report_path, out = tmp_path / "r.json", tmp_path / "out"
    if command == "register":
        argv = ["register", "--t1", scene / "e1", "--t2", scene / "e2",
                "--joint", scene / "joint", "--report", report_path]
    else:
        write_json(report_path, report_data)
        argv = ["detect", "--t1", scene / "e1", "--t2", scene / "e2",
                "--report", report_path, "--out", out]
    before = report_path.read_bytes() if report_path.exists() else None
    assert main([str(arg) for arg in argv]) == 2
    line = _assert_one_error_line(capsys, command)
    assert f"{frame}: coordinates beyond float32 range at point {point}" in line
    assert "r.json" not in line
    assert not out.exists()
    assert (report_path.read_bytes() if report_path.exists() else None) == before


def _synth_and_register(tmp_path, spec):
    """The scene directory ``synth`` writes for ``spec`` and its register report."""
    spec_path, scene = tmp_path / "spec.json", tmp_path / "scene"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path), "--out", str(scene)]) == 0
    assert main(["register", "--t1", str(scene / "e1"), "--t2", str(scene / "e2"),
                 "--joint", str(scene / "joint"), "--report", str(scene / "r.json")]) == 0
    return scene, scene / "r.json"


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_one_frame_per_epoch_is_data_error_naming_no_transform(tmp_path, capsys, command):
    # ATE and RTE need two poses per epoch; a fit to fewer is no fault of
    # the report or of gt.json.
    scene, report = _synth_and_register(
        tmp_path, {"seed": 4, "n_frames_per_epoch": 1, "n_static": 3000}
    )
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"eval": ["eval", "--report", report, "--scene", scene, "--out", out],
            "ablate": ["ablate", "--scene", scene, "--k-list", "2", "--out", out]}[command]
    assert main([str(arg) for arg in argv]) == 2
    line = _assert_one_error_line(capsys, command)
    assert "epoch 1 has fewer than 2 poses" in line
    assert "transform" not in line and "r.json" not in line and "gt.json" not in line
    assert not out.exists()


@pytest.mark.parametrize("command", ["register", "ablate"])
def test_keyframes_without_points_are_data_error_naming_the_epoch(tmp_path, capsys, command):
    # 20 static points over 60 frames leave most frames empty, and with them
    # every keyframe the default budget selects in epoch 1.
    spec = {"seed": 0, "n_static": 20, "n_frames_per_epoch": 60, "change_spec": []}
    spec_path, scene = tmp_path / "spec.json", tmp_path / "scene"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path), "--out", str(scene)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"register": ["register", "--t1", scene / "e1", "--t2", scene / "e2",
                         "--joint", scene / "joint", "--report", out],
            "ablate": ["ablate", "--scene", scene, "--k-list", "5", "--out", out]}[command]
    assert main([str(arg) for arg in argv]) == 2
    line = _assert_one_error_line(capsys, command)
    assert "epoch 1: its keyframes hold 0 points" in line and "gt.json" not in line
    assert not out.exists()


def test_two_frames_per_epoch_evaluate(tmp_path):
    scene, report = _synth_and_register(
        tmp_path, {"seed": 4, "n_frames_per_epoch": 2, "n_static": 3000}
    )
    assert main(["eval", "--report", str(report), "--scene", str(scene)]) == 0
    assert json.loads((scene / "metrics.json").read_text())["ate_m"] < 1e-6


class TestEval:
    def test_metrics_written_and_small_for_oracle(self, scene_dir, tmp_path):
        report_path = tmp_path / "r.json"
        assert main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"), "--report", str(report_path),
        ]) == 0
        metrics_path = tmp_path / "m.json"
        code = main([
            "eval", "--report", str(report_path), "--scene", str(scene_dir),
            "--out", str(metrics_path),
        ])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["ate_m"] < 1e-2
        assert metrics["transform_error"]["scale_ratio_error"] < 1e-3
        assert json.loads(report_path.read_text())["metrics"] is not None

    def test_reads_only_the_transforms_of_ground_truth(self, scene_dir, report_data, tmp_path):
        # eval derives the relative transform from the two epoch transforms
        # and reads no other key of gt.json; the keys older versions wrote
        # read the same.  A trajectory file's path gives its epoch, so no
        # per-pose epoch_id is read, whatever it says.
        report_path = tmp_path / "r.json"
        report_path.write_text(json.dumps(report_data))
        full = tmp_path / "full.json"
        argv = ["eval", "--report", str(report_path), "--scene"]
        assert main([*argv, str(scene_dir), "--out", str(full)]) == 0
        scene = tmp_path / "scene"
        _copy_scene_files(scene_dir, scene, _EVAL_FILES)
        _add_older_keys(scene)
        older = tmp_path / "older.json"
        assert main([*argv, str(scene), "--out", str(older)]) == 0
        assert older.read_bytes() == full.read_bytes()
        for epoch_of in (lambda epoch_id: 3 - epoch_id, lambda epoch_id: "two"):
            for name, epoch_id in _TRAJECTORY_EPOCHS.items():
                _edit_json(scene / name, lambda data, label=epoch_of(epoch_id): [
                    pose.update(epoch_id=label) for pose in data["poses"]
                ])
            other = tmp_path / "other.json"
            assert main([*argv, str(scene), "--out", str(other)]) == 0
            assert other.read_bytes() == full.read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["gt_trajectories/e2.json", "e2/trajectory.json"])
    def test_epoch_2_poses_that_say_epoch_1(self, scene_dir, report_data, tmp_path, capsys, name):
        # The file's path gives the epoch, so a pose's epoch_id is never read.
        report_path = tmp_path / "r.json"
        report_path.write_text(json.dumps(report_data))
        argv = ["eval", "--report", str(report_path), "--scene"]
        clean = tmp_path / "clean.json"
        assert main([*argv, str(scene_dir), "--out", str(clean)]) == 0
        scene = tmp_path / "scene"
        _copy_scene_files(scene_dir, scene, _EVAL_FILES)
        _edit_json(scene / name, lambda data: [pose.update(epoch_id=1) for pose in data["poses"]])
        capsys.readouterr()
        assert main([*argv, str(scene)]) == 0
        assert capsys.readouterr().err == ""
        assert (scene / "metrics.json").read_bytes() == clean.read_bytes()


# Keys older versions wrote and no reader reads: gt.json's per-point fields
# (base64 strings) and gt_relative, and each trajectory file's epoch_id, at
# the top level and in each pose.
_OLDER_GT_FIELDS = ("labels_t1", "labels_t2", "edge_t1", "edge_t2", "origin_t1", "origin_t2")
_TRAJECTORY_EPOCHS = {"e1/trajectory.json": 1, "e2/trajectory.json": 2,
                      "gt_trajectories/e1.json": 1, "gt_trajectories/e2.json": 2}


def _add_older_keys(scene):
    """Give the gt.json and the trajectory files present in ``scene`` the
    keys that older versions wrote."""
    relative = compose_relative(*read_ground_truth(scene / "gt.json")["epoch_transforms"])
    _edit_json(scene / "gt.json", lambda data: data.update(
        dict.fromkeys(_OLDER_GT_FIELDS, "AAEAAQ=="), gt_relative=relative.to_dict()
    ))
    for name, epoch_id in _TRAJECTORY_EPOCHS.items():
        if (scene / name).exists():
            _edit_json(scene / name, lambda data, epoch_id=epoch_id: [
                item.update(epoch_id=epoch_id) for item in (data, *data["poses"])
            ])


def _untimed(row) -> dict:
    """A sweep row as its CSV cells, without the wall-clock columns."""
    return {k: "" if v is None else str(v) for k, v in row.items() if not k.startswith("time_")}


class TestAblate:
    def test_csv_table(self, tmp_path):
        # The scene_dir scene, exported with a perturbed joint that
        # scene.json records and ablate sweeps against.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 7, "joint_sigma": 0.01}))
        scene = tmp_path / "s"
        assert main(["synth", "--spec", str(spec_path), "--out", str(scene)]) == 0
        assert json.loads((scene / "scene.json").read_text())["joint_sigma"] == 0.01
        out = tmp_path / "sweep.csv"
        code = main(["ablate", "--scene", str(scene), "--k-list", "2,5", "--out", str(out)])
        assert code == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert [row["k"] for row in rows] == ["2", "5"]
        for row in rows:
            assert float(row["delta_pct"]) >= 0.0

    def test_round_off_baseline_leaves_delta_pct_empty(self, scene_dir, tmp_path):
        # Without a joint error the coarse ATE is round-off, so no percentage.
        out = tmp_path / "sweep.csv"
        assert main(["ablate", "--scene", str(scene_dir), "--k-list", "2", "--out", str(out)]) == 0
        with open(out) as handle:
            (row,) = csv.DictReader(handle)
        assert float(row["ate_coarse"]) < 1e-12 and row["delta_pct"] == ""

    def test_csv_is_the_library_sweep(self, tmp_path, capsys):
        # ablate reads scene.json and gt.json alone and tabulates exactly
        # what ablation_sweep gives on the generated scene.
        spec = SceneSpec(
            seed=3, n_static=2000, n_frames_per_epoch=8, noise_sigma=0.002,
            change_spec=(ChangeSpec("moved", 200, (1.0, 0.5, 0.2)),),
        )
        scene = generate_scene(spec)
        write_scene_dir(scene, tmp_path / "full", joint_sigma=0.01)
        _copy_scene_files(tmp_path / "full", tmp_path / "s", _ABLATE_FILES)
        assert json.loads((tmp_path / "s" / "scene.json").read_text())["joint_sigma"] == 0.01
        out = tmp_path / "sweep.csv"
        argv = ["ablate", "--scene", str(tmp_path / "s"), "--k-list", "2,3", "--out", str(out)]
        assert main(argv) == 0
        expected = ablation_sweep(scene, [2, 3], modes=MODES, config=PipelineConfig(),
                                  joint_sigma=0.01)
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [_untimed(row) for row in rows] == [_untimed(row) for row in expected]
        # A gt.json of another scene does not describe this one.
        other = generate_scene(SceneSpec(seed=4, n_static=2000, n_frames_per_epoch=8))
        write_json(tmp_path / "s" / "gt.json", scene_ground_truth_dict(other))
        capsys.readouterr()
        assert main(argv) == 2
        line = _assert_one_error_line(capsys, "ablate")
        assert f"{tmp_path / 's' / 'gt.json'}: seed is 4" in line

    def test_reads_only_the_transforms_of_ground_truth(self, scene_dir, tmp_path):
        # ablate regenerates the scene from scene.json and gt.json's header;
        # the keys older versions wrote sweep the same.
        argv = ["ablate", "--k-list", "2,5", "--scene"]
        full = tmp_path / "full.csv"
        assert main([*argv, str(scene_dir), "--out", str(full)]) == 0
        scene = tmp_path / "s"
        _copy_scene_files(scene_dir, scene, _ABLATE_FILES)
        _add_older_keys(scene)
        older = tmp_path / "older.csv"
        assert main([*argv, str(scene), "--out", str(older)]) == 0
        tables = []
        for path in (full, older):
            with open(path, newline="") as handle:
                tables.append([_untimed(row) for row in csv.DictReader(handle)])
        assert tables[0] == tables[1]

    def test_sweeps_the_joint_synth_exported(self, tmp_path):
        # register + eval read the joint clouds synth wrote; ablate
        # regenerates them from scene.json.  Both see the same perturbed
        # joint, so their ATEs agree up to the float32 rounding of the PLYs.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 3, "joint_sigma": 0.01}))
        scene, report, csv_path = tmp_path / "s", tmp_path / "r.json", tmp_path / "sweep.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(scene)]) == 0
        assert main(["register", "--t1", str(scene / "e1"), "--t2", str(scene / "e2"),
                     "--joint", str(scene / "joint"), "--report", str(report)]) == 0
        assert main(["eval", "--report", str(report), "--scene", str(scene),
                     "--out", str(tmp_path / "m.json")]) == 0
        assert main(["ablate", "--scene", str(scene), "--k-list", "5", "--modes", "full",
                     "--out", str(csv_path)]) == 0
        ate_eval = json.loads((tmp_path / "m.json").read_text())["ate_m"]
        with open(csv_path, newline="") as handle:
            (row,) = csv.DictReader(handle)
        assert ate_eval > 1e-4
        assert float(row["ate_full"]) == pytest.approx(ate_eval, rel=1e-3)

    def test_scene_json_without_joint_sigma_sweeps_the_exact_joint(self, scene_dir, tmp_path):
        # Directories written before scene.json recorded joint_sigma read as
        # 0.0: the sweep of an unperturbed joint.
        scene = tmp_path / "s"
        _copy_scene_files(scene_dir, scene, _ABLATE_FILES)
        _edit_json(scene / "scene.json", lambda data: data.pop("joint_sigma"))
        out = tmp_path / "sweep.csv"
        assert main(["ablate", "--scene", str(scene), "--k-list", "2,5", "--out", str(out)]) == 0
        data = json.loads((scene / "scene.json").read_text())
        spec = SceneSpec.from_dict({k: v for k, v in data.items() if k != "format_version"})
        gt = read_ground_truth(scene / "gt.json")
        expected = ablation_sweep(
            generate_scene(spec, gt["epoch_transforms"]), [2, 5],
            modes=MODES, config=PipelineConfig(), joint_sigma=0.0,
        )
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [_untimed(row) for row in rows] == [_untimed(row) for row in expected]

    def test_bad_k_list_is_usage_error(self, scene_dir, tmp_path):
        code = main([
            "ablate", "--scene", str(scene_dir), "--k-list", "2,x",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k-list", "0"],
            ["--k-list", "2,-2"],
            ["--k-list", "2", "--modes", "fast"],
            ["--k-list", ""],
            ["--k-list", "2", "--modes", ","],
        ],
        ids=["zero_k", "negative_k", "unknown_mode", "no_k", "no_mode"],
    )
    def test_invalid_config_is_usage_error(self, scene_dir, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        code = main(["ablate", "--scene", str(scene_dir), "--out", str(out), *flags])
        assert code == 1
        _assert_one_error_line(capsys, "ablate")
        assert not out.exists()


def _joint_sigma_rule(flag_value: str) -> str:
    """The start of the message for a JSON file whose joint_sigma is
    ``float(flag_value)``: json.dumps spells a non-finite one NaN or
    Infinity, which the decoder rejects before the field check."""
    if math.isfinite(float(flag_value)):
        return "joint_sigma must be finite and >= 0"
    return f"invalid JSON ({json.dumps(float(flag_value))} is not a finite number)"


class TestNumericFlagChecks:
    """Negative or non-finite numeric flags are usage errors raised before
    any file is read or written.  The joint sigma is no longer a flag: the
    values its flags were checked with are data errors in the spec file."""

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_detect_tau_ratio(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        code = main([
            "detect", "--t1", str(tmp_path / "missing1"), "--t2", str(tmp_path / "missing2"),
            "--report", str(tmp_path / "missing.json"), "--out", str(out),
            "--tau-ratio", value,
        ])
        assert code == 1
        line = _assert_one_error_line(capsys, "detect")
        assert "--tau-ratio must be finite and >= 0" in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--joint-sigma", "-1"], ["--joint-sigma", "nan"], ["--joint-sigma", "inf"]]
    )
    def test_synth_joint_error_model(self, tmp_path, capsys, flags):
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), *flags]) == 1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 1, "joint_sigma": float(flags[1])}))
        capsys.readouterr()
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        line = _assert_one_error_line(capsys, "synth")
        assert f"{spec_path}: {_joint_sigma_rule(flags[1])}" in line
        assert not out.exists()

    def test_synth_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(["synth", "--seed", "-1", "--out", str(out)]) == 1
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": -1}))
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert f"{spec_path}: " in _assert_one_error_line(capsys, "synth")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--joint-sigma", "-1"], ["--joint-sigma", "inf"], ["--joint-sigma", "nan"]]
    )
    def test_ablate_joint_error_model(self, scene_dir, tmp_path, capsys, flags):
        scene = tmp_path / "scene"
        _copy_scene_files(scene_dir, scene, _ABLATE_FILES)
        out = tmp_path / "t.csv"
        argv = ["ablate", "--scene", str(scene), "--k-list", "2", "--out", str(out)]
        assert main([*argv, *flags]) == 1
        _edit_json(scene / "scene.json", lambda data: data.update(joint_sigma=float(flags[1])))
        capsys.readouterr()
        assert main(argv) == 2
        line = _assert_one_error_line(capsys, "ablate")
        assert f"{scene / 'scene.json'}: {_joint_sigma_rule(flags[1])}" in line
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "ablate"])
    def test_joint_warp_is_not_a_flag(self, tmp_path, capsys, command):
        # Nor is the joint sigma, which scene.json records.
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", "--out", str(out)],
            "ablate": ["ablate", "--scene", str(tmp_path / "missing"), "--k-list", "2",
                       "--out", str(out)],
        }[command]
        for flag in ("--joint-warp", "--joint-sigma"):
            assert main([*argv, flag, "0.1"]) == 1
            assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
            assert not out.exists()
