"""Span recorder and the wrappers that trace cloudchange from outside.

The traced pass patches public names of the cloudchange modules in the
namespace where their callers look them up, so the program itself carries no
tracing code and untraced runs call the original functions.  Each span holds
its name, start, end, parent and a few counts; spans stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np


class Recorder:
    """Spans of one process, in the order they were opened."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "attrs": {}}
        )
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index]['name']} closed out of order")

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)


# Counts recorded at each boundary.  They run after the span has closed, so
# they are charged to the parent span and to trace.overhead_ratio, never to
# the layer they describe.


def _n_query(args, result):
    q = np.asarray(args[1])
    return {"points": 1 if q.ndim == 1 else len(q)}


def _fingerprint(points: np.ndarray) -> str:
    """Content key of a point set: its size plus a strided sample of rows."""
    stride = max(1, len(points) // 4096)
    digest = hashlib.sha1(np.ascontiguousarray(points[::stride]).tobytes()).hexdigest()
    return f"{len(points)}:{digest}"


def _n_build(args, result):
    cloud = args[0]
    return {"points": len(cloud), "key": _fingerprint(cloud.points)}


def _n_out_points(args, result):
    return {"points": len(result)}


def _n_mask(args, result):
    return {"in": len(result), "out": int(np.count_nonzero(result))}


def _n_kept(args, result):
    return {"in": len(args[0]), "out": len(result)}


def _n_pairs(args, result):
    return {"pairs": len(result[0])}


def _n_fine(args, result):
    return {"accepted": bool(result.accepted_refinement)}


def _n_purify(args, result):
    return {"in": len(result.static_mask), "out": result.n_static}


def _ply_format(path) -> str:
    with open(path, "rb") as handle:
        head = handle.read(64)
    return "ascii" if b"format ascii" in head else "binary"


def _n_ply_read(args, result):
    return {"bytes": os.path.getsize(args[0]), "format": _ply_format(args[0])}


def _n_ply_write(args, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute or Class.attribute, span name, counts)
TARGETS = (
    ("pipeline", "register_epochs", "pipeline.register_epochs", None),
    ("cli", "register_epochs", "pipeline.register_epochs", None),
    ("pipeline", "register_scene", "pipeline.register_scene", None),
    ("pipeline", "fps_temporal", "keyframes.fps", None),
    ("coarse", "JointReconstruction.keyframe_cloud", "coarse.keyframe_cloud", None),
    ("pipeline", "build_keyframe_correspondences", "coarse.correspondences", _n_pairs),
    ("pipeline", "estimate_epoch_alignment", "coarse.fit", None),
    ("coarse", "umeyama", "geometry.umeyama", None),
    ("geometry", "apply_transform", "geometry.apply_transform", None),
    ("cli", "apply_transform", "geometry.apply_transform", None),
    ("cloud", "PointCloud.concatenate", "cloud.concatenate", _n_out_points),
    ("pipeline", "median_confidence_mask", "cloud.confidence_filter", _n_mask),
    ("cloud", "filter_by_median_confidence", "cloud.confidence_filter", _n_kept),
    ("pipeline", "voxel_downsample_indices", "cloud.voxel", _n_kept),
    ("fine", "build_index", "cloud.index_build", _n_build),
    ("changes", "build_index", "cloud.index_build", _n_build),
    ("cloud", "SpatialIndex.query", "cloud.index_query", _n_query),
    ("changes", "robust_extent", "cloud.robust_extent", None),
    ("pipeline", "fine_stage", "fine.stage", _n_fine),
    ("fine", "purify", "fine.purify", _n_purify),
    ("fine", "refine_translation", "fine.refine", None),
    ("pipeline", "change_scores", "changes.scores", None),
    ("pipeline", "classify_changes", "changes.classify", None),
    ("changes", "colorize", "changes.colorize", None),
    ("cli", "colorize", "changes.colorize", None),
    ("bundles", "read_ply", "ply.read", _n_ply_read),
    ("ply", "write_ply", "ply.write", _n_ply_write),
    ("bundles", "write_ply", "ply.write", _n_ply_write),
    ("bundles", "read_epoch_dir", "bundles.read_epoch_dir", None),
    ("bundles", "read_joint_dir", "bundles.read_joint_dir", None),
    ("pipeline", "RunReport.write", "pipeline.report_io", None),
    ("pipeline", "RunReport.read", "pipeline.report_io", None),
    ("synthetic", "mock_joint_inference", "synthetic.mock_joint", None),
    ("synthetic", "generate_scene", "synthetic.generate", None),
    ("metrics", "evaluate_scene_run", "metrics.evaluate", None),
    ("cli", "ate", "metrics.evaluate", None),
    ("cli", "rte", "metrics.evaluate", None),
)


def _traced(recorder: Recorder, fn, name: str, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if counts is not None:
            recorder.spans[index]["attrs"].update(counts(args, result))
        return result

    return wrapper


@contextmanager
def installed(recorder: Recorder):
    """Patch every target with a span-recording wrapper; restore on exit."""
    originals = []
    try:
        for module_name, attr, name, counts in TARGETS:
            owner = importlib.import_module(f"cloudchange.{module_name}")
            class_name, _, attr = attr.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name)
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = _traced(recorder, fn, name, counts)
                patched = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
            else:
                raw = getattr(owner, attr)
                patched = _traced(recorder, raw, name, counts)
            originals.append((owner, attr, raw))
            setattr(owner, attr, patched)
        recorder.enabled = True
        yield recorder
    finally:
        recorder.enabled = False
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)


def _duration(span) -> float:
    return span["end"] - span["start"]


def total(spans: list, first: int, end: int, name: str) -> float:
    """Summed duration of the spans called ``name`` in ``spans[first:end]``."""
    return sum(_duration(span) for span in spans[first:end] if span["name"] == name)


def unit_layers(spans: list, root: int, end: int) -> dict:
    """Per-layer quantities of one traced unit.

    ``spans[root]`` is the unit's own span and ``spans[root + 1:end]`` are
    its descendants.  Times are summed per span name; self time is a span's
    duration minus the time its direct children cover.
    """
    inside = range(root + 1, end)
    children_time = {}
    for i in inside:
        parent = spans[i]["parent"]
        children_time[parent] = children_time.get(parent, 0.0) + _duration(spans[i])

    busy, self_time, attrs, calls = {}, {}, {}, {}
    for i in inside:
        span = spans[i]
        name = span["name"]
        busy[name] = busy.get(name, 0.0) + _duration(span)
        self_time[name] = self_time.get(name, 0.0) + _duration(span) - children_time.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        bucket = attrs.setdefault(name, {})
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)):
                bucket[key] = bucket.get(key, 0) + value

    def s(name):
        return busy.get(name, 0.0)

    def count(name, key):
        return attrs.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    builds = [spans[i]["attrs"]["key"] for i in inside if spans[i]["name"] == "cloud.index_build"]
    repeats = len(builds) - len(set(builds))
    fine_ids = {i for i in inside if spans[i]["name"] == "fine.stage"}
    self_check = sum(
        _duration(spans[i])
        for i in inside
        if spans[i]["name"] == "cloud.index_query" and spans[i]["parent"] in fine_ids
    )
    accepted = sum(1 for i in fine_ids if spans[i]["attrs"]["accepted"])
    reads = {"ascii": [0.0, 0], "binary": [0.0, 0]}
    for i in inside:
        if spans[i]["name"] == "ply.read":
            entry = reads[spans[i]["attrs"]["format"]]
            entry[0] += _duration(spans[i])
            entry[1] += spans[i]["attrs"]["bytes"]
    unit_s = _duration(spans[root])

    layers = {
        "keyframes.fps.s": s("keyframes.fps"),
        "coarse.keyframe_cloud.s": s("coarse.keyframe_cloud"),
        "coarse.correspondences.s": s("coarse.correspondences"),
        "coarse.correspondences.pairs": count("coarse.correspondences", "pairs"),
        "coarse.fit.s": s("coarse.fit"),
        "geometry.umeyama.s": s("geometry.umeyama"),
        "geometry.apply_transform.s": s("geometry.apply_transform"),
        "cloud.concatenate.s": s("cloud.concatenate"),
        "cloud.concatenate.points": count("cloud.concatenate", "points"),
        "cloud.confidence_filter.s": s("cloud.confidence_filter"),
        "cloud.confidence_filter.keep_ratio": ratio(
            count("cloud.confidence_filter", "out"), count("cloud.confidence_filter", "in")
        ),
        "cloud.voxel.s": s("cloud.voxel"),
        "cloud.voxel.calls": calls.get("cloud.voxel", 0),
        "cloud.voxel.keep_ratio": ratio(count("cloud.voxel", "out"), count("cloud.voxel", "in")),
        "cloud.index_build.s": s("cloud.index_build"),
        "cloud.index_build.calls": len(builds),
        "cloud.index_build.points": count("cloud.index_build", "points"),
        "cloud.index_build.repeat_ratio": ratio(repeats, len(builds)),
        "cloud.index_query.s": s("cloud.index_query"),
        "cloud.index_query.points": count("cloud.index_query", "points"),
        "cloud.index_query.us_per_point": ratio(
            1e6 * s("cloud.index_query"), count("cloud.index_query", "points")
        ),
        "cloud.robust_extent.s": s("cloud.robust_extent"),
        "fine.stage.s": s("fine.stage"),
        "fine.stage.self_s": self_time.get("fine.stage", 0.0),
        "fine.purify.s": s("fine.purify"),
        "fine.purify.static_ratio": ratio(count("fine.purify", "out"), count("fine.purify", "in")),
        "fine.refine.s": s("fine.refine"),
        "fine.self_check.s": self_check,
        "fine.accepted": ratio(accepted, len(fine_ids)),
        "changes.scores.s": s("changes.scores"),
        "changes.classify.s": s("changes.classify"),
        "changes.colorize.s": s("changes.colorize"),
        "ply.read.ascii.s": reads["ascii"][0],
        "ply.read.ascii.mb_per_s": ratio(reads["ascii"][1] / 1e6, reads["ascii"][0]),
        "ply.read.binary.s": reads["binary"][0],
        "ply.read.binary.mb_per_s": ratio(reads["binary"][1] / 1e6, reads["binary"][0]),
        "ply.read.bytes": reads["ascii"][1] + reads["binary"][1],
        "ply.write.s": s("ply.write"),
        "ply.write.mb_per_s": ratio(count("ply.write", "bytes") / 1e6, s("ply.write")),
        "ply.write.bytes": count("ply.write", "bytes"),
        "bundles.read_epoch_dir.s": s("bundles.read_epoch_dir"),
        "bundles.read_joint_dir.s": s("bundles.read_joint_dir"),
        "pipeline.register_epochs.self_s": self_time.get("pipeline.register_epochs", 0.0),
        "pipeline.report_io.s": s("pipeline.report_io"),
        "synthetic.mock_joint.s": s("synthetic.mock_joint"),
        "synthetic.mock_joint.calls": calls.get("synthetic.mock_joint", 0),
        "metrics.evaluate.s": s("metrics.evaluate"),
        "cli.register.s": s("cli.register"),
        "cli.detect.s": s("cli.detect"),
        "cli.eval.s": s("cli.eval"),
        "trace.unattributed_ratio": ratio(unit_s - children_time.get(root, 0.0), unit_s),
    }
    return layers


def median_layers(per_unit: list) -> dict:
    """Median over traced units of each per-layer quantity."""
    return {name: statistics.median(u[name] for u in per_unit) for name in per_unit[0]}
