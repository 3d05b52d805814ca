"""Statistics of the repository benchmark.

ssbench (the C++ program) emits raw measurements: per-episode set-up time,
per-step wall and virtual time, correctness checks and, in a traced run,
per-layer samples and spans. This module turns them into the metrics named
in BENCHMARK.json and into the one-line JSON result run.py prints last.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
# A tail value needs this many samples beyond it.
TAIL_BEYOND = 10


def tail(values):
    """Highest percentile of `values` with >= TAIL_BEYOND samples beyond it.

    Returns (value, percentile). With n samples that is the (TAIL_BEYOND+1)-th
    largest, at percentile 100 * (n - TAIL_BEYOND) / n. Too few samples for
    any tail gives the maximum, reported at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def count_outcomes(raw):
    """(attempted, failed) over every episode: steps plus checks.

    A step that threw is recorded with ok=false and ends its episode; it
    counts as failed, as does every check whose value exceeds its limit.
    An episode that failed before its checks ran contributes no checks.
    """
    attempted = failed = 0
    for ep in raw["episodes"]:
        for step in ep["steps"]:
            attempted += 1
            failed += 0 if step["ok"] else 1
        for check in ep["checks"]:
            attempted += 1
            failed += 0 if check["ok"] else 1
    return attempted, failed


def _ok_walls(episodes):
    return [s["wall_s"] for ep in episodes for s in ep["steps"] if s["ok"]]


def end_to_end(raw):
    """End-to-end metrics of the untraced episodes.

    Returns {name: (value, unit, samples, note)}.
    """
    eps = [ep for ep in raw["episodes"] if not ep["traced"]]
    walls = _ok_walls(eps)
    if not walls:
        return {}
    # Tail per episode, then the median over episodes: a burst of slow
    # steps from a busy host lands in one episode, not in the figure.
    tails = [tail(_ok_walls([ep])) for ep in eps if _ok_walls([ep])]
    rms = [ep["force_rel_rms"] for ep in eps if "force_rel_rms" in ep]
    med = statistics.median
    out = {
        "setup_s": (med([ep["setup_s"] for ep in eps]), "s", len(eps),
                    "median of per-episode set-up"),
        "step_s": (med(walls), "s", len(walls), "median step wall"),
        "step_tail_s": (med([t[0] for t in tails]), "s", len(walls),
                        "p%.1f step wall, median of episodes"
                        % med([t[1] for t in tails])),
        "particle_steps_per_s": (
            raw["bodies"] * len(walls) / math.fsum(walls), "1/s", len(walls),
            "bodies x steps / summed step wall"),
        "cpu_s_per_step": (math.fsum(ep["cpu_s"] for ep in eps) / len(walls),
                           "s", len(walls), "process user+sys CPU"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1, "whole process"),
    }
    if rms:
        out["force_rel_rms"] = (med(rms), "ratio", len(rms),
                                "vs direct sum at a fixed step")
    return out


def per_layer(raw, spec):
    """Per-layer metrics of a traced run, in spec order.

    A layer the workload bypasses has no samples and reads 0 (its calls and
    counts are zero). Returns {name: (value, unit, samples, note)}.
    """
    traced = [ep for ep in raw["episodes"] if ep["traced"]]
    untraced = [ep for ep in raw["episodes"] if not ep["traced"]]
    samples = dict(raw["samples"])
    vt = [s["vtime_s"] for ep in traced for s in ep["steps"]
          if s["ok"] and s["vtime_s"] > 0]
    if vt:
        samples["vtime_step_s"] = vt
    tw, uw = _ok_walls(traced), _ok_walls(untraced)
    if tw and uw:
        samples["trace.overhead_s"] = [
            statistics.median(tw) - statistics.median(uw)]
    out = {}
    for m in spec["per_layer"]:
        xs = samples.get(m["name"], [])
        value = statistics.median(xs) if xs else 0.0
        out[m["name"]] = (value, m["unit"], len(xs),
                          "median" if xs else "bypassed")
    return out


def self_times(spans):
    """{name: (calls, total_s, self_s)}; self excludes child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        calls, total, own = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (calls + 1, total + dur, own + dur - child[i])
    return out


def validate_spec(spec):
    """Raise ValueError unless BENCHMARK.json obeys the naming rules."""
    seen = set()
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            if not UNIT_RE.match(m["unit"]):
                raise ValueError("bad unit %r for %s" % (m["unit"], m["name"]))
            if m["better"] not in ("higher", "lower"):
                raise ValueError("bad 'better' for %s" % m["name"])
    for n in names:
        if not NAME_RE.match(n):
            raise ValueError("bad name %r" % n)
        if n in seen:
            raise ValueError("duplicate name %r" % n)
        seen.add(n)
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            raise ValueError("bound of %s outside (0, 0.25]" % m["name"])
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"]):
        raise ValueError("setup_s (s, lower) is required")


def result_line(spec, metrics, attempted, failed, trace):
    """The final JSON line: exactly the metrics of the chosen group."""
    group = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in group if m["name"] not in metrics]
    if missing:
        raise ValueError("metrics not measured: %s" % ", ".join(missing))
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]][0]),
                        "unit": m["unit"]}
            for m in group
        },
    }
    return json.dumps(out, separators=(",", ":"))


def parse_result_line(line):
    """Inverse of result_line, checking the shape the result format fixes."""
    d = json.loads(line)
    if tuple(sorted(d)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError("result keys %s" % sorted(d))
    if not isinstance(d["correct"], bool):
        raise ValueError("correct must be a bool")
    for k in ("attempted", "failed"):
        if not isinstance(d[k], int) or isinstance(d[k], bool) or d[k] < 0:
            raise ValueError("%s must be a whole number" % k)
    if d["attempted"] < 1:
        raise ValueError("attempted must be >= 1")
    for name, m in d["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(
                m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError("bad metric %s" % name)
        if not math.isfinite(m["value"]):
            raise ValueError("metric %s is not finite" % name)
    return d
