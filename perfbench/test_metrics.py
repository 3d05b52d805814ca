"""Self-tests of the benchmark's statistics (no build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import metrics  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def step(wall, ok=True, vtime=0.0):
    s = {"wall_s": wall, "vtime_s": vtime, "ok": ok}
    if not ok:
        s["error"] = "boom"
    return s


def check(name, value, limit):
    return {"name": name, "value": value, "limit": limit,
            "ok": value <= limit}


def raw_doc(episodes, samples=None):
    return {"bodies": 100, "peak_rss_mb": 12.5, "episodes": episodes,
            "samples": samples or {}}


def episode(walls, traced=False, checks=(), setup=0.5, cpu=1.0, rms=None):
    ep = {"traced": traced, "setup_s": setup, "cpu_s": cpu,
          "steps": [step(w) for w in walls], "checks": list(checks)}
    if rms is not None:
        ep["force_rel_rms"] = rms
    return ep


class Tail(unittest.TestCase):
    def test_ten_samples_stay_beyond(self):
        xs = list(range(1, 101))  # 1..100
        value, pct = metrics.tail(xs)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_percentile_follows_sample_count(self):
        value, pct = metrics.tail([float(i) for i in range(40)])
        self.assertEqual(value, 29.0)
        self.assertAlmostEqual(pct, 75.0)

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        self.assertEqual(metrics.tail(xs), (1.0, 100.0 * 2 / 12))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(metrics.tail([float(i) for i in range(10)]),
                         (9.0, 100.0))

    def test_run_tail_is_the_median_of_episode_tails(self):
        eps = [episode([0.1] * 30 + [0.5] * 11),  # a burst of slow steps
               episode([0.1] * 30 + [0.2] * 11),
               episode([0.1] * 30 + [0.3] * 11)]
        value, unit, n, note = metrics.end_to_end(
            raw_doc(eps))["step_tail_s"]
        self.assertEqual((value, unit, n), (0.3, "s", 123))
        self.assertIn("p75.6", note)


class Outcomes(unittest.TestCase):
    def test_clean_run(self):
        raw = raw_doc([episode([0.1, 0.2], checks=[check("a", 1, 2)])])
        self.assertEqual(metrics.count_outcomes(raw), (3, 0))

    def test_thrown_step_counts_as_failed(self):
        ep = episode([0.1, 0.1])
        ep["steps"].append(step(0.05, ok=False))  # the step threw
        raw = raw_doc([ep, episode([0.1], checks=[check("a", 1, 2)])])
        self.assertEqual(metrics.count_outcomes(raw), (5, 1))

    def test_failed_check_counts(self):
        raw = raw_doc([episode([0.1], checks=[check("a", 3, 2),
                                              check("b", 0, 0)])])
        self.assertEqual(metrics.count_outcomes(raw), (3, 1))

    def test_failed_steps_leave_timings(self):
        ep = episode([0.1, 0.3])
        ep["steps"].append(step(9.0, ok=False))
        e2e = metrics.end_to_end(raw_doc([ep]))
        self.assertEqual(e2e["step_s"][0], 0.2)
        self.assertEqual(e2e["step_s"][2], 2)


class EndToEnd(unittest.TestCase):
    def test_metrics_and_units(self):
        raw = raw_doc([episode([0.1, 0.3], setup=0.4, cpu=0.8, rms=0.01),
                       episode([0.2, 0.2], setup=0.6, cpu=0.4),
                       episode([9.0], traced=True, setup=5.0)])
        e2e = metrics.end_to_end(raw)
        self.assertEqual(e2e["setup_s"][:3], (0.5, "s", 2))
        self.assertEqual(e2e["step_s"][0], 0.2)
        self.assertAlmostEqual(e2e["particle_steps_per_s"][0], 100 * 4 / 0.8)
        self.assertAlmostEqual(e2e["cpu_s_per_step"][0], 1.2 / 4)
        self.assertEqual(e2e["force_rel_rms"][0], 0.01)
        self.assertEqual(e2e["peak_rss_mb"][0], 12.5)
        self.assertEqual({m["name"] for m in SPEC["end_to_end"]}, set(e2e))

    def test_per_layer_bypassed_layers_read_zero(self):
        raw = raw_doc([episode([0.2, 0.2]),
                       episode([0.25, 0.25], traced=True)],
                      samples={"hot.build_s": [0.1, 0.3, 0.2]})
        layer = metrics.per_layer(raw, SPEC)
        self.assertEqual(list(layer), [m["name"] for m in SPEC["per_layer"]])
        self.assertEqual(layer["hot.build_s"][:3], (0.2, "s", 3))
        self.assertEqual(layer["sph.step_s"][:3], (0.0, "s", 0))
        self.assertAlmostEqual(layer["trace.overhead_s"][0], 0.05)

    def test_self_time_excludes_children(self):
        spans = [
            {"name": "step", "start": 0.0, "end": 1.0, "parent": -1},
            {"name": "force", "start": 0.1, "end": 0.8, "parent": 0},
            {"name": "walk", "start": 0.2, "end": 0.7, "parent": 1},
            {"name": "step", "start": 1.0, "end": 1.5, "parent": -1},
        ]
        st = metrics.self_times(spans)
        self.assertEqual(st["step"][0], 2)
        self.assertAlmostEqual(st["step"][2], 0.3 + 0.5)
        self.assertAlmostEqual(st["force"][2], 0.2)
        self.assertAlmostEqual(st["walk"][2], 0.5)


class Names(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        metrics.validate_spec(SPEC)

    def spec_with(self, group, **metric):
        spec = json.loads(json.dumps(SPEC))
        spec[group].append(metric)
        return spec

    def test_rejects_bad_names(self):
        for name in ("", ".dot", "has space", "x" * 65, "semi;colon"):
            with self.assertRaises(ValueError, msg=name):
                metrics.validate_spec(self.spec_with(
                    "per_layer", name=name, unit="s", better="lower"))

    def test_rejects_duplicates_and_bad_units(self):
        with self.assertRaises(ValueError):
            metrics.validate_spec(self.spec_with(
                "per_layer", name="step_s", unit="s", better="lower"))
        with self.assertRaises(ValueError):
            metrics.validate_spec(self.spec_with(
                "per_layer", name="new.metric", unit="m s", better="lower"))

    def test_rejects_loose_bounds(self):
        with self.assertRaises(ValueError):
            metrics.validate_spec(self.spec_with(
                "end_to_end", name="new_s", unit="s", better="lower",
                bound=0.3))

    def test_result_needs_every_metric(self):
        with self.assertRaises(ValueError):
            metrics.result_line(SPEC, {"setup_s": (1.0, "s", 1, "")}, 1, 0,
                                trace=0)


class RoundTrip(unittest.TestCase):
    def test_result_line_round_trips(self):
        table = {m["name"]: (0.1 + i / 7.0, m["unit"], 3, "")
                 for i, m in enumerate(SPEC["end_to_end"])}
        line = metrics.result_line(SPEC, table, 42, 1, trace=0)
        self.assertNotIn("\n", line)
        d = metrics.parse_result_line(line)
        self.assertEqual(d["attempted"], 42)
        self.assertEqual(d["failed"], 1)
        self.assertFalse(d["correct"])
        for name, (value, unit, _, _) in table.items():
            self.assertEqual(d["metrics"][name],
                             {"value": value, "unit": unit})

    def test_per_layer_line_has_exactly_the_layer_metrics(self):
        table = {m["name"]: (1, m["unit"], 1, "") for m in SPEC["per_layer"]}
        d = metrics.parse_result_line(
            metrics.result_line(SPEC, table, 5, 0, trace=1))
        self.assertTrue(d["correct"])
        self.assertEqual(list(d["metrics"]),
                         [m["name"] for m in SPEC["per_layer"]])
        self.assertIsInstance(d["metrics"]["vmpi.messages"]["value"], float)

    def test_parse_rejects_malformed(self):
        good = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        for bad in ({**good, "extra": 1}, {**good, "attempted": 0},
                    {**good, "failed": 1.5}, {**good, "correct": 1},
                    {**good, "metrics": {"x": {"value": "1", "unit": "s"}}}):
            with self.assertRaises(ValueError):
                metrics.parse_result_line(json.dumps(bad))


if __name__ == "__main__":
    unittest.main()
