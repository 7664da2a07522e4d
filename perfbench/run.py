"""Benchmark entry point for cloudchange.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pair_100k --seed 1 --seconds 44 --trace 0

It imports cloudchange from the checkout's ``src`` directory, runs units of
the chosen workload (one synthetic scene pair each, scene seeds ``seed``,
``seed + 1``, ...) until ``--seconds`` have passed, checks every unit's
outputs, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every other unit is
traced and the metrics are the per-layer ones.  The first unit is a
warm-up: it is checked but its times are left out.  Earlier lines describe
the machine and give each unit's times and output digest.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
RESULTS = Path(".bench_results")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
# Units run first in every process and checked, but left out of the timings:
# the first unit of a process runs measurably slower than later ones.
WARMUP_UNITS = 1
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def import_cloudchange() -> float:
    """Import cloudchange from this checkout and return the time it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cloudchange

    elapsed = time.perf_counter() - start
    origin = Path(cloudchange.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"cloudchange was imported from {origin}, not from {SRC}")
    return elapsed


def machine() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "memory_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def run_unit(workload, seed: int, recorder: spans.Recorder, traced: bool) -> dict:
    """Set up, run and check one unit; spans are recorded when ``traced``."""
    workdir = WORK / workload.name
    unit = {"scene_seed": seed, "traced": traced}
    try:
        with spans.installed(recorder) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            with recorder.span("setup"):
                setup_first = len(recorder.spans)
                inputs = workload.setup(seed, workdir)
            setup_end = len(recorder.spans)
            unit["setup_s"] = time.perf_counter() - start
            with recorder.span("unit") as root:
                out = workload.run(inputs, recorder)
            if traced:
                layers = spans.unit_layers(recorder.spans, root, len(recorder.spans))
                layers["synthetic.generate.s"] = spans.total(
                    recorder.spans, setup_first, setup_end, "synthetic.generate"
                )
                unit["layers"] = layers
        unit.update(out["times"])
        unit["quality"], unit["digest"] = workload.check(inputs, out)
        unit["ok"] = True
    except Exception:  # a failing unit is reported and counted; the run goes on
        traceback.print_exc()
        unit["ok"] = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"first scene seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out for checking claims)",
    )
    parser.add_argument("--seconds", type=float, default=44.0, help="how long a run lasts, set-up and checks included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        import_s = import_cloudchange()
    except (OSError, ImportError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    print(json.dumps({"machine": machine()}), flush=True)

    recorder = spans.Recorder()
    units = []
    durations = []
    deadline = time.perf_counter() + args.seconds
    minimum = WARMUP_UNITS + (2 if args.trace else 1)
    # A unit starts only if one more of median length still ends before the
    # deadline, so a run lasts about --seconds whatever the unit length.
    while len(units) < minimum or (
        time.perf_counter() + statistics.median(durations) < deadline
    ):
        measured = len(units) - WARMUP_UNITS
        traced = bool(args.trace) and measured >= 0 and measured % 2 == 1
        start = time.perf_counter()
        unit = run_unit(workload, args.seed + len(units), recorder, traced)
        durations.append(time.perf_counter() - start)
        unit["warmup"] = measured < 0
        units.append(unit)
        print(json.dumps({"unit": {k: v for k, v in unit.items() if k != "layers"}}), flush=True)

    with contextlib.suppress(OSError):
        WORK.rmdir()
    ok = [u for u in units if u["ok"]]
    timed = [u for u in ok if not u["warmup"]]
    plain = [u for u in timed if not u["traced"]]
    traced = [u for u in timed if u["traced"]]
    if args.trace:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"spans_{args.workload}_seed{args.seed}.json").write_text(json.dumps(recorder.spans))
    if not plain or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": len(units), "failed": len(units) - len(ok), "metrics": {}}))
        return 1

    if args.trace:
        declared = spec["per_layer"]
        values = spans.median_layers([u["layers"] for u in traced])
        values["trace.overhead_ratio"] = statistics.median(u["unit_s"] for u in traced) / statistics.median(
            u["unit_s"] for u in plain
        )
        for name in ("ate_rel", "transform_err"):
            values[f"pipeline.registration.{name}"] = statistics.median(u["quality"][name] for u in ok)
    else:
        declared = spec["end_to_end"]
        values = {name: statistics.median(u[name] for u in plain) for name in ("unit_s", "register_s", "detect_s")}
        values["setup_s"] = import_s + statistics.median(u["setup_s"] for u in plain)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["change_f1"] = statistics.median(u["quality"]["change_f1"] for u in ok)
    print(json.dumps({"summary": {"units": len(units), "import_s": import_s}}), flush=True)
    result = {
        "correct": len(ok) == len(units),
        "attempted": len(units),
        "failed": len(units) - len(ok),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
