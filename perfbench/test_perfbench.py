#!/usr/bin/env python3
"""Tests of the benchmark's own helpers (no build, no program run).

    python3 perfbench/test_perfbench.py
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class QuantileRule(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        for n in (11, 50, 100, 500, 999, 1000, 5000):
            i = m.tail_index(n)
            self.assertGreaterEqual(n - 1 - i, m.TAIL_BEYOND, n)

    def test_tail_is_capped_at_p99(self):
        self.assertEqual(m.tail_index(1000), 989)      # p99, 10 beyond
        self.assertEqual(m.tail_index(100_000), 98_999)  # p99, 1000 beyond
        self.assertEqual(m.tail_index(100), 89)        # p90

    def test_tail_is_the_highest_qualifying_rank(self):
        # One rank higher would leave fewer than ten samples beyond it.
        for n in (20, 100, 500):
            self.assertEqual(n - 1 - (m.tail_index(n) + 1), m.TAIL_BEYOND - 1)

    def test_small_samples_fall_back_to_the_maximum(self):
        self.assertEqual(m.summarize([3, 1, 2])["tail"], 3)
        self.assertEqual(m.tail_index(1), 0)
        self.assertEqual(m.tail_index(10), 9)
        self.assertEqual(m.tail_index(11), 0)

    def test_summary_uses_raw_samples(self):
        # 1..1000 in shuffled order: exact p50 and p99, no bucket edges.
        xs = [(i * 7919) % 1000 + 1 for i in range(1000)]
        s = m.summarize(xs)
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500.5)
        self.assertEqual(s["tail"], 990)
        self.assertAlmostEqual(s["q"], 0.99)

    def test_empty_summary_is_zero(self):
        self.assertEqual(m.summarize([])["n"], 0)
        with self.assertRaises(ValueError):
            m.tail_index(0)


class SpanArithmetic(unittest.TestCase):
    def test_union_counts_overlap_once(self):
        self.assertEqual(m.union_length([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(m.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(m.union_length([]), 0)

    def test_self_time_with_overlapping_children(self):
        # Children on different threads overlap each other and stick out
        # of the parent; the covered part inside the parent counts once.
        parent = (0, 100)
        children = [(10, 30), (20, 40), (90, 120), (-5, 2)]
        self.assertEqual(m.self_time(parent, children), 100 - (30 + 10 + 2))

    def test_layer_self_times_add_up_to_the_root(self):
        root = (0, 1000)
        layers = [("io", [(100, 400), (150, 500)]),   # two threads
                  ("exec", [(400, 450), (500, 520)]),
                  ("ml", [(700, 750)]),
                  ("core", [(0, 600), (600, 990)])]
        selfs = m.layer_self_times(root, layers)
        self.assertEqual(selfs["io"], 400)
        self.assertEqual(selfs["exec"], 20)    # 400..450 lies under io
        self.assertEqual(selfs["ml"], 50)
        self.assertEqual(selfs["core"], 990 - 470)
        self.assertEqual(selfs["unattributed"], 10)
        self.assertEqual(sum(selfs.values()), 1000)

    def test_gaps_are_per_thread(self):
        runs = [(1, 0, 10), (1, 12, 20), (2, 0, 5), (2, 9, 11), (1, 25, 30)]
        self.assertEqual(sorted(m.per_thread_gaps(runs)),
                         [(5, 9), (10, 12), (20, 25)])


class ReferenceSpeed(unittest.TestCase):
    def test_steady_speed_is_one_factor(self):
        probes = [(t, 200) for t in range(0, 1000, 100)]
        warp = m.speed_warp(50, probes, 100)       # calls take twice ref
        self.assertEqual(warp(50), 50)
        self.assertEqual(warp(450) - warp(250), 100)
        self.assertEqual(warp(2000) - warp(1000), 500)   # after the last
        self.assertEqual(warp(-100) - warp(-300), 100)   # before the first

    def test_each_stretch_scales_by_the_speed_around_it(self):
        # Calls at 0..400 take the reference time, from 500 on twice it.
        probes = [(t, 100 if t < 500 else 200) for t in range(0, 1000, 100)]
        warp = m.speed_warp(0, probes, 100, half_window=0)
        self.assertEqual(warp(400) - warp(100), 300)
        self.assertEqual(warp(900) - warp(600), 150)
        self.assertEqual(warp(550) - warp(350), 150 + 25)

    def test_window_median_ignores_one_outlier(self):
        probes = [(t, 1000 if t == 300 else 100) for t in range(0, 700, 100)]
        warp = m.speed_warp(0, probes, 100)
        self.assertEqual(warp(600), 600)

    def test_probe_time_inside_gaps(self):
        gaps = [(10, 20), (30, 40)]
        probes = [(12, 14), (18, 25), (35, 36), (50, 60)]
        self.assertEqual(m.covered_within(gaps, probes), 2 + 2 + 1)


class Names(unittest.TestCase):
    def test_name_rule(self):
        for good in ("setup_s", "io.run_us.lossy-az.mean", "9lives", "a" * 64):
            self.assertTrue(m.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a" * 65, "lat%", None):
            self.assertFalse(m.valid_metric_name(bad), bad)

    def test_unit_rule(self):
        for good in ("s", "1/s", "us", "%", "count", "MB"):
            self.assertTrue(m.valid_unit(good), good)
        for bad in ("", "a b", "x" * 17):
            self.assertFalse(m.valid_unit(bad), bad)

    def test_benchmark_json_names(self):
        spec = json.loads(SPEC.read_text())
        names = [x["name"] for g in ("end_to_end", "per_layer")
                 for x in spec[g]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for group in ("end_to_end", "per_layer"):
            for x in spec[group]:
                self.assertTrue(m.valid_metric_name(x["name"]), x)
                self.assertTrue(m.valid_unit(x["unit"]), x)
                self.assertIn(x["better"], ("higher", "lower"))
        bounds = {x["name"]: x["bound"] for x in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


class Ratios(unittest.TestCase):
    def test_slice_pairs(self):
        # Slices of 10: 0 and 1 pair up, 2 has no untraced partner, 4 and
        # 5 pair up; a lone odd slice (7) is skipped.
        samples = [(0, 4), (5, 6), (12, 4), (25, 9), (41, 3), (49, 3),
                   (55, 2), (75, 1)]
        self.assertEqual(m.slice_pair_ratios(samples, 10), [5 / 4, 3 / 2])
        self.assertEqual(m.slice_pair_ratios([], 10), [])

    def test_geomean(self):
        self.assertAlmostEqual(m.geomean([1, 4]), 2.0)
        with self.assertRaises(ValueError):
            m.geomean([1, 0])


if __name__ == "__main__":
    unittest.main()
