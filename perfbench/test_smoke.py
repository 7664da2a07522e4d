"""Smoke test of the benchmark at tiny scene sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench/test_smoke.py``.
It checks that every workload reports every declared metric with its unit,
that the layers each workload exercises are seen by the tracer, and that
tracing a unit changes none of its outputs.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_cloudchange()

import spans  # noqa: E402
import workloads  # noqa: E402
from cloudchange import pipeline  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 3000

# Per-layer metrics that must be non-zero on a traced unit of each workload.
_SHARED = (
    "keyframes.fps.s",
    "coarse.keyframe_cloud.s",
    "coarse.correspondences.s",
    "coarse.correspondences.pairs",
    "coarse.fit.s",
    "geometry.umeyama.s",
    "geometry.apply_transform.s",
    "cloud.concatenate.s",
    "cloud.concatenate.points",
    "cloud.confidence_filter.s",
    "cloud.confidence_filter.keep_ratio",
    "cloud.voxel.s",
    "cloud.voxel.calls",
    "cloud.voxel.keep_ratio",
    "cloud.index_build.s",
    "cloud.index_build.calls",
    "cloud.index_build.points",
    "cloud.index_query.s",
    "cloud.index_query.points",
    "cloud.index_query.us_per_point",
    "cloud.robust_extent.s",
    "fine.stage.s",
    "fine.stage.self_s",
    "fine.purify.s",
    "fine.purify.static_ratio",
    "fine.refine.s",
    "fine.self_check.s",
    "changes.scores.s",
    "changes.classify.s",
    "changes.colorize.s",
    "pipeline.register_epochs.self_s",
    "pipeline.registration.ate_rel",
    "pipeline.registration.transform_err",
    "synthetic.generate.s",
    "trace.overhead_ratio",
)
EXERCISED = {
    "pair_100k": _SHARED,
    "ablate_sweep": _SHARED
    + (
        "cloud.index_build.repeat_ratio",
        "synthetic.mock_joint.s",
        "synthetic.mock_joint.calls",
        "metrics.evaluate.s",
    ),
    "cli_files": _SHARED
    + (
        "ply.read.ascii.s",
        "ply.read.ascii.mb_per_s",
        "ply.read.binary.s",
        "ply.read.binary.mb_per_s",
        "ply.read.bytes",
        "ply.write.s",
        "ply.write.mb_per_s",
        "ply.write.bytes",
        "bundles.read_epoch_dir.s",
        "bundles.read_joint_dir.s",
        "pipeline.report_io.s",
        "metrics.evaluate.s",
        "cli.register.s",
        "cli.detect.s",
        "cli.eval.s",
    ),
}


def _tiny(monkeypatch, name):
    factory = functools.partial(workloads.WORKLOADS[name], n_static=TINY)
    monkeypatch.setitem(workloads.WORKLOADS, name, factory)


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert set(EXERCISED) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reports_every_declared_metric(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    _tiny(monkeypatch, name)
    assert run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    expected_positive = EXERCISED[name] if trace else values
    assert [k for k in expected_positive if not values[k] > 0] == []
    assert not (tmp_path / run.WORK / name).exists()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output(name, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS[name](n_static=TINY)
    recorder = spans.Recorder()
    plain = run.run_unit(workload, 7, recorder, traced=False)
    traced = run.run_unit(workload, 7, recorder, traced=True)

    assert plain["ok"] and traced["ok"]
    assert traced["digest"] == plain["digest"]
    assert traced["quality"] == plain["quality"]
    assert not hasattr(pipeline.register_epochs, "__wrapped__")
    assert not hasattr(pipeline.PointCloud.concatenate, "__wrapped__")

