#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload galaxy_1rank --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds the
simulator and the ssbench program under $CARGO_TARGET_DIR (default
.bench_build) with CMake; later runs reuse the build. The last line of
stdout is the JSON result {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1. The lines above it show every metric with its unit,
sample count and how it was taken, the host fingerprint and, in a traced
run, each layer's self time. The full record goes to
<build>/perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import metrics  # noqa: E402

ROOT = HERE.parent
# A run must end within 180 s; leave room for set-up and reporting.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def run_quiet(cmd, timeout, what):
    """Run a build step; on failure show its output and exit."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % what)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-8000:])
        fail("%s failed (exit %d)" % (what, p.returncode))


def build(deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at %s/src: run from a checkout" % ROOT, 2)
    cmake_dir = build_dir() / "perfbench-cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                  max(1, deadline - time.monotonic()), "cmake configure")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", str(cmake_dir), "--target", "ssbench",
               "-j", jobs], max(1, deadline - time.monotonic()),
              "cmake build")
    return cmake_dir / "ssbench"


def show(title, table):
    print(title)
    for name, (value, unit, n, note) in table.items():
        print("  %-28s %14.6g %-8s n=%-5d %s" % (name, value, unit, n, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics.validate_spec(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    exe = build(start + BUILD_TIMEOUT_S)
    out_dir = build_dir() / "perfbench"
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = out_dir / ("spans-%s.json" % tag)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(out_dir / ("work-%d" % os.getpid()))]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ssbench timed out after %d s" % RUN_TIMEOUT_S)
    if p.returncode != 0:
        fail("ssbench exited with %d" % p.returncode)
    raw = json.loads(p.stdout)

    fp = raw["fingerprint"]
    print("host: nproc=%d simd=%s build=%s pool_threads=%d ranks=%d %s" % (
        fp["nproc"], fp["simd"], fp["build_type"], fp["pool_threads"],
        fp["ranks"], "comparable" if fp["comparable"]
        else "NOT COMPARABLE (SS_POOL_THREADS or SS_SIMD set)"))
    attempted, failed = metrics.count_outcomes(raw)
    for ep in raw["episodes"]:
        for s in ep["steps"]:
            if not s["ok"]:
                print("failed step: " + s["error"])
        for c in ep["checks"]:
            if not c["ok"]:
                print("failed check: %s = %.6g > %.6g" % (
                    c["name"], c["value"], c["limit"]))
    print("attempted %d, failed %d, failed_frac %.6g" % (
        attempted, failed, failed / attempted))

    if args.trace:
        table = metrics.per_layer(raw, spec)
        show("per-layer metrics (%s, traced episodes):" % args.workload,
             table)
        spans = json.loads(spans_path.read_text())["spans"]
        print("layer self time (s): calls total self")
        for name, (calls, total, own) in sorted(
                metrics.self_times(spans).items()):
            print("  %-22s %6d %10.4f %10.4f" % (name, calls, total, own))
    else:
        table = metrics.end_to_end(raw)
        vt = [s["vtime_s"] for ep in raw["episodes"] for s in ep["steps"]
              if s["ok"] and s["vtime_s"] > 0]
        show("end-to-end metrics (%s):" % args.workload, table)
        if vt:
            # Modelled 2003-cluster time, kept apart from host time.
            print("  %-28s %14.6g %-8s n=%-5d %s" % (
                "vtime_step_s", statistics.median(vt), "vs", len(vt),
                "modelled cluster seconds per step (median)"))

    try:
        line = metrics.result_line(spec, table, attempted, failed, args.trace)
    except ValueError as ex:
        fail(str(ex))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results").mkdir(exist_ok=True)
    (out_dir / "results" / (tag + ".json")).write_text(json.dumps({
        "fingerprint": fp, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2],
                        "note": v[3]} for k, v in table.items()},
    }, indent=1))
    print(line)


if __name__ == "__main__":
    main()
