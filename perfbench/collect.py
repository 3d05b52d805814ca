#!/usr/bin/env python3
"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] \\
        [--trace-seed 1] [--write perfbench/baseline.json]

For each workload and end-to-end metric it prints the median and the
inter-quartile range as a share of the median (the spread BENCHMARK.json's
bounds are judged against), flagging spreads above the bound and above a
third of it. --trace-seed adds one traced run per workload. --write
stores the summary, the measured results a later change is compared with.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import metrics  # noqa: E402


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit("run.py failed on %s seed %d" % (workload, seed))
    lines = p.stdout.strip().splitlines()
    result = metrics.parse_result_line(lines[-1])
    result["host"] = next(x for x in lines if x.startswith("host: "))[6:]
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--write")
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = seeds_of(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds,
               "workloads": {}}
    steady = True
    for w in names:
        results = [run(w, s, spec["run_seconds"], 0) for s in seeds]
        rows = {}
        print("%s (%d seeds)" % (w, len(seeds)))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            sp = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s" and sp > bounds[m["name"]]:
                flag, steady = "ABOVE BOUND", False
            elif sp > bounds[m["name"]] / 3:
                flag = "above bound/3"
            print("  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  " (bound %.2f) %s" % (m["name"], med, q1, q3, sp,
                                        bounds[m["name"]], flag))
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                               "q3": q3, "spread": sp, "values": vals}
        failed = sum(r["failed"] for r in results)
        print("  failed %d of %d attempted" % (
            failed, sum(r["attempted"] for r in results)))
        entry = {"host": results[0]["host"], "end_to_end": rows,
                 "failed": failed}
        if args.trace_seed is not None:
            t = run(w, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer_seed%d" % args.trace_seed] = {
                k: v["value"] for k, v in t["metrics"].items()}
        summary["workloads"][w] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
