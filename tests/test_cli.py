"""Command-line interface: subcommands, exit codes, output files."""

from __future__ import annotations

import csv
import json
import shutil

import numpy as np
import pytest

from cloudchange import compose_relative
from cloudchange.bundles import (
    read_ground_truth, read_trajectory, scene_ground_truth_dict, write_json, write_scene_dir,
)
from cloudchange.cli import main
from cloudchange.metrics import ablation_sweep
from cloudchange.pipeline import MODES, PipelineConfig, RunReport
from cloudchange.synthetic import ChangeSpec, SceneSpec, generate_scene


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenes") / "s"
    assert main(["synth", "--seed", "7", "--out", str(path)]) == 0
    return path


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
            json.dumps({"seed": 1, "n_static": 500, "n_frames_per_epoch": 4,
                        "change_spec": [], "noise_sigma": 0.0,
                        "edge_noise_fraction": 0.0})
        )
        out = tmp_path / "scene"
        assert main(["synth", "--spec", str(spec_path), "--seed", "9",
                     "--out", str(out)]) == 0
        echo = json.loads((out / "scene.json").read_text())
        assert echo["seed"] == 9
        assert echo["n_static"] == 500

    def test_spec_round_trip_and_shared_trajectories(self, tmp_path):
        spec = SceneSpec(
            seed=3, n_static=400, n_frames_per_epoch=4, shared_trajectories=True,
            change_spec=(ChangeSpec("moved", 50, (1.0, 0.5, 0.2)),),
        )
        assert SceneSpec.from_dict(spec.to_dict()) == spec
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        out = tmp_path / "scene"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert json.loads((out / "scene.json").read_text())["shared_trajectories"] is True
        # A shared route puts both epochs' cameras at the same world centers.
        centers = [
            read_trajectory(out / "gt_trajectories" / f"e{epoch}.json").centers
            for epoch in (1, 2)
        ]
        np.testing.assert_array_equal(centers[0], centers[1])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"change_spec": [{"kind": "added"}]},
            {"n_static": "many"},
            {"n_statc": 500},
            {"seed": -1},
            {"n_static": 0},
            {"change_spec": [{"kind": "warped", "n_points": 5}]},
        ],
        ids=["change_without_n_points", "non_integer_n_static", "unknown_key", "negative_seed",
             "zero_n_static", "unknown_change_kind"],
    )
    def test_malformed_spec_is_data_error(self, tmp_path, capsys, overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(overrides))
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "s")])
        assert code == 2
        assert f"{spec_path}: " in _assert_one_error_line(capsys, "synth")

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
            "--joint", str(scene_dir / "joint"), "--report", str(report_path), "--seed", "3",
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

    @pytest.mark.parametrize(
        "flag, value",
        [
            pytest.param("--k", "0", id="--k"),
            pytest.param("--cap", "0", id="--cap"),
            pytest.param("--grid", "0", id="--grid"),
            pytest.param("--alpha", "0", id="--alpha"),
            pytest.param("--alpha", "inf", id="--alpha-inf"),
            pytest.param("--cap", "1", id="--cap-1"),
            pytest.param("--cap", "2", id="--cap-2"),
            pytest.param("--grid", "3000000", id="--grid-3000000"),
            pytest.param("--seed", "-1", id="--seed--1"),
        ],
    )
    def test_zero_config_value_is_usage_error(self, scene_dir, capsys, flag, value):
        # A negative seed must fail up front even when the cap subsamples.
        code = main([
            "register", "--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2"),
            "--joint", str(scene_dir / "joint"), "--cap", "10", flag, value,
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
                "--joint", str(scene_dir / "joint"), "--report", str(path), "--seed", "5",
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
    "non_integer_epoch_id": _set("gt_trajectories/e2.json", "poses", 3, "epoch_id", "two"),
    "null_frame_index": _set("e2/trajectory.json", "poses", 0, "frame_index", None),
    "frames_not_increasing": ("e1/trajectory.json", _repeat_first_frame_index),
    "seed_not_a_number": _set("gt.json", "seed", "seven"),
    "n_frames_not_a_number": _set("gt.json", "n_frames", None),
    "extent_not_a_number": _set("gt.json", "extent", [1.0]),
    # Values a lenient reader would truncate or coerce.
    "fractional_frame_index": _set("e1/trajectory.json", "poses", 0, "frame_index", 1.7),
    "fractional_epoch_id": _set("e2/trajectory.json", "poses", 0, "epoch_id", 1.2),
    "boolean_frame_index": _set("gt_trajectories/e1.json", "poses", 0, "frame_index", True),
    "string_center": _set("e2/trajectory.json", "poses", 2, "center", ["1", "2", "3"]),
    "boolean_in_center": _set("e1/trajectory.json", "poses", 0, "center", 1, True),
    "short_center": _set("gt_trajectories/e1.json", "poses", 1, "center", [0.0, 1.0]),
    "non_finite_center": _set("gt_trajectories/e2.json", "poses", 0, "center", 2, float("nan")),
    "pose_form_file": ("e2/trajectory.json", _to_pose_form),
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
    name, edit = MALFORMED_EVAL_INPUTS[case]
    _edit_json(scene / name, edit)
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps(report_data))
    argv = ["eval", "--report", str(report_path), "--scene", str(scene),
            "--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    assert name in _assert_one_error_line(capsys, "eval")


_ABLATE_FILES = ("scene.json", "gt.json")

MALFORMED_ABLATE_INPUTS = {
    **MALFORMED_GT_HEADERS,
    "unknown_spec_key": _set("scene.json", "bogus", 1),
    "zero_n_static": _set("scene.json", "n_static", 0),
    "unknown_change_kind": _set("scene.json", "change_spec", 0, "kind", "warped"),
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


def _bad_path_argv(case, scene_dir, report, a_file, a_dir, out):
    epochs = ["--t1", str(scene_dir / "e1"), "--t2", str(scene_dir / "e2")]
    return {
        "synth_out_is_file": ["synth", "--seed", "1", "--out", a_file],
        "detect_out_is_file": ["detect", *epochs, "--report", report, "--out", a_file],
        "register_report_is_dir": [
            "register", *epochs, "--joint", str(scene_dir / "joint"), "--report", a_dir
        ],
        "eval_out_is_dir": ["eval", "--report", report, "--scene", str(scene_dir), "--out", a_dir],
        "ablate_out_is_dir": ["ablate", "--scene", str(scene_dir), "--k-list", "2", "--out", a_dir],
        "eval_report_is_dir": ["eval", "--report", a_dir, "--scene", str(scene_dir), "--out", out],
        "detect_aligned_ply_is_dir": [
            "detect", "--aligned-ply", a_dir, "--target-ply", a_file, "--out", out
        ],
        "synth_spec_is_dir": ["synth", "--spec", a_dir, "--out", out],
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "synth_out_is_file", "detect_out_is_file", "register_report_is_dir", "eval_out_is_dir",
        "ablate_out_is_dir", "eval_report_is_dir", "detect_aligned_ply_is_dir", "synth_spec_is_dir",
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
def test_malformed_ply_header_is_data_error(tmp_path, capsys, case):
    path = tmp_path / "bad.ply"
    path.write_text(f"ply\nformat ascii 1.0\n{MALFORMED_PLY_HEADERS[case]}end_header\n0\n")
    argv = ["detect", "--aligned-ply", str(path), "--target-ply", str(path),
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

    def test_detect_from_aligned_plys(self, scene_dir, tmp_path):
        from cloudchange import apply_transform
        from cloudchange.bundles import read_epoch_dir
        from cloudchange.cloud import PointCloud
        from cloudchange.ply import write_ply

        gt = read_ground_truth(scene_dir / "gt.json")
        t1 = PointCloud.concatenate(read_epoch_dir(scene_dir / "e1"))
        t2 = PointCloud.concatenate(read_epoch_dir(scene_dir / "e2"))
        aligned = apply_transform(compose_relative(*gt["epoch_transforms"]), t1)
        write_ply(aligned, tmp_path / "aligned.ply")
        write_ply(t2, tmp_path / "target.ply")
        out = tmp_path / "ch"
        code = main([
            "detect", "--aligned-ply", str(tmp_path / "aligned.ply"),
            "--target-ply", str(tmp_path / "target.ply"), "--out", str(out),
        ])
        assert code == 0
        assert (out / "change_stats.json").exists()

    def test_detect_without_inputs_is_usage_error(self, tmp_path):
        assert main(["detect", "--out", str(tmp_path / "x")]) == 1


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
            "--no-filter-confidence",
        ])
        assert code == 2
        line = _assert_one_error_line(capsys, "detect")
        assert "frame_0010.ply: non-finite coordinates" in line


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
        # and never decodes the per-point lists; a gt.json that still holds
        # the gt_relative key of older versions reads the same.
        report_path = tmp_path / "r.json"
        report_path.write_text(json.dumps(report_data))
        full = tmp_path / "full.json"
        argv = ["eval", "--report", str(report_path), "--scene"]
        assert main([*argv, str(scene_dir), "--out", str(full)]) == 0
        scene = tmp_path / "scene"
        _copy_scene_files(scene_dir, scene, _EVAL_FILES)
        gt = read_ground_truth(scene / "gt.json")
        relative = compose_relative(*gt["epoch_transforms"]).to_dict()

        def strip(data):
            for key in ("labels_t1", "labels_t2", "edge_t1", "edge_t2", "origin_t1", "origin_t2"):
                del data[key]
            data["gt_relative"] = relative

        _edit_json(scene / "gt.json", strip)
        lean = tmp_path / "lean.json"
        assert main([*argv, str(scene), "--out", str(lean)]) == 0
        assert lean.read_bytes() == full.read_bytes()


class TestAblate:
    def test_csv_table(self, scene_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "ablate", "--scene", str(scene_dir), "--k-list", "2,5",
            "--out", str(out), "--joint-sigma", "0.01",
        ])
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
        write_scene_dir(scene, tmp_path / "full")
        _copy_scene_files(tmp_path / "full", tmp_path / "s", _ABLATE_FILES)
        out = tmp_path / "sweep.csv"
        argv = ["ablate", "--scene", str(tmp_path / "s"), "--k-list", "2,3", "--out", str(out),
                "--joint-sigma", "0.01"]
        assert main(argv) == 0
        expected = ablation_sweep(scene, [2, 3], modes=MODES, config=PipelineConfig(),
                                  joint_sigma=0.01)
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))

        def untimed(row):
            return {k: "" if v is None else str(v) for k, v in row.items() if not k.startswith("time_")}

        assert [untimed(row) for row in rows] == [untimed(row) for row in expected]
        # A gt.json of another scene does not describe this one.
        other = generate_scene(SceneSpec(seed=4, n_static=2000, n_frames_per_epoch=8))
        write_json(tmp_path / "s" / "gt.json", scene_ground_truth_dict(other))
        capsys.readouterr()
        assert main(argv) == 2
        line = _assert_one_error_line(capsys, "ablate")
        assert f"{tmp_path / 's' / 'gt.json'}: seed is 4" in line

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
            ["--k-list", "2", "--seed", "-1"],
            ["--k-list", ""],
            ["--k-list", "2", "--modes", ","],
        ],
        ids=["zero_k", "negative_k", "unknown_mode", "negative_seed", "no_k", "no_mode"],
    )
    def test_invalid_config_is_usage_error(self, scene_dir, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        code = main(["ablate", "--scene", str(scene_dir), "--out", str(out), *flags])
        assert code == 1
        _assert_one_error_line(capsys, "ablate")
        assert not out.exists()


class TestNumericFlagChecks:
    """Negative or non-finite numeric flags are usage errors raised before
    any file is read or written."""

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
        "flags", [["--joint-sigma", "-1"], ["--joint-warp", "nan"], ["--joint-sigma", "inf"]]
    )
    def test_synth_joint_error_model(self, tmp_path, capsys, flags):
        out = tmp_path / "scene"
        code = main(["synth", "--seed", "1", "--out", str(out), *flags])
        assert code == 1
        line = _assert_one_error_line(capsys, "synth")
        assert f"{flags[0]} must be finite and >= 0" in line
        assert not out.exists()

    def test_synth_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(["synth", "--seed", "-1", "--out", str(out)]) == 1
        assert "--seed must be >= 0" in _assert_one_error_line(capsys, "synth")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--joint-sigma", "-1"], ["--joint-warp", "inf"], ["--joint-warp", "nan"]]
    )
    def test_ablate_joint_error_model(self, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        code = main([
            "ablate", "--scene", str(tmp_path / "missing"), "--k-list", "2",
            "--out", str(out), *flags,
        ])
        assert code == 1
        line = _assert_one_error_line(capsys, "ablate")
        assert f"{flags[0]} must be finite and >= 0" in line
        assert not out.exists()
