#!/usr/bin/env python3
"""Tests of the benchmark's own rules: percentiles, answer checking, output.

    python3 perfbench/test_run.py

Needs no build: it exercises run.py's pure functions on small fixtures.
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ORACLE = run.parse_answers("7:3.5 2:2.25 9:1\n4:2 5:2\n\n")


def sample(query, topk, send=0, recv=1_000_000, status=0):
    return [query, send, recv, status, [list(e) for e in topk]]


def report(samples):
    return {"samples": samples, "wall_s": 2.0, "setup_s": [0.3, 0.1, 0.2],
            "vmhwm_kb": 2048}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)

    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(run.percentile(list(range(100)), 90), 89)
        self.assertIsNone(run.percentile(list(range(99)), 90))
        self.assertIsNone(run.percentile([], 50))

    def test_ties_at_the_top_count_as_not_beyond(self):
        values = list(range(85)) + [1000] * 15
        self.assertIsNone(run.percentile(values, 90))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        self.assertEqual(run.percentile(values, 50), 3.0)


class AnswerTest(unittest.TestCase):
    def test_exact_answer_passes(self):
        self.assertTrue(run.judge(sample(0, ORACLE[0]), ORACLE))

    def test_wrong_score_fails(self):
        wrong = [(7, 3.5), (2, 2.0), (9, 1.0)]
        self.assertFalse(run.judge(sample(0, wrong), ORACLE))

    def test_wrong_set_above_kth_score_fails(self):
        wrong = [(6, 3.5), (2, 2.25), (9, 1.0)]
        self.assertFalse(run.judge(sample(0, wrong), ORACLE))

    def test_repeated_set_fails(self):
        repeated = [(7, 3.5), (2, 2.25), (2, 1.0)]
        self.assertFalse(run.judge(sample(0, repeated), ORACLE))

    def test_set_above_kth_score_with_another_sets_score_fails(self):
        swapped = [(2, 3.5), (7, 2.25), (9, 1.0)]
        self.assertFalse(run.judge(sample(0, swapped), ORACLE))

    def test_missing_entry_fails(self):
        self.assertFalse(run.judge(sample(0, ORACLE[0][:2]), ORACLE))

    def test_other_set_tied_at_kth_score_passes(self):
        tied = [(4, 2.0), (11, 2.0)]
        self.assertTrue(run.judge(sample(1, tied), ORACLE))

    def test_last_bits_of_a_score_may_differ(self):
        close = [(7, 3.5 + 1e-13), (2, 2.25), (9, 1.0)]
        self.assertTrue(run.judge(sample(0, close), ORACLE))

    def test_rejection_fails(self):
        self.assertFalse(run.judge(sample(2, [], status=9), ORACLE))

    def test_wrong_answer_is_counted_as_a_failure(self):
        good = sample(0, ORACLE[0])
        bad = sample(0, [(7, 3.5), (2, 2.25), (9, 0.5)])
        r = report([good] * 150 + [bad] * 10)
        self.assertEqual(run.count_failures(r, ORACLE), 10)
        metrics = run.end_to_end_metrics(r, ORACLE)
        self.assertAlmostEqual(metrics["success_rate"], 150 / 160)
        self.assertAlmostEqual(metrics["qps"], 150 / 2.0)
        self.assertEqual(metrics["latency_p50_ms"], 1.0)

    def test_failures_count_as_late_in_the_tail(self):
        good = sample(0, ORACLE[0])
        bad = sample(0, [], status=3)
        r = report([good] * 85 + [bad] * 15)
        with self.assertRaises(run.BenchError):
            run.end_to_end_metrics(r, ORACLE)


class OutputTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_end_to_end_line_has_every_metric_with_its_unit(self):
        r = report([sample(0, ORACLE[0], recv=1_000_000 + i)
                    for i in range(120)])
        values = run.end_to_end_metrics(r, ORACLE)
        line = json.loads(run.result_line(True, 120, 0, values, run.END_TO_END))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        self.assertEqual(got, want)
        for v in line["metrics"].values():
            self.assertTrue(math.isfinite(v["value"]))

    def test_per_layer_line_has_every_metric_with_its_unit(self):
        traced = {
            "queries": 4,
            "sum_ms": {"cursor_build": 1, "refinement": 8, "postprocess": 2,
                       "search": 11, "search_refinement": 8.8,
                       "search_postprocess": 2.2, "engine": 12, "wire": 14},
            "counters": {"candidates": 400, "bucket_moves": 900,
                         "iub_filtered": 380, "postprocess_sets": 20,
                         "no_em_skipped": 8, "em_computed": 4,
                         "em_early_terminated": 2, "tuples_produced": 100,
                         "cursor_hits": 30, "cursor_misses": 10,
                         "rejected": 0},
            "engine_build_ms": [1.0], "open_ms": [0.1],
            "index_build_ms": [0.5], "swap_ms": 9.0, "calib_ms": 80.0,
            "engine_call_ms": [3.0, 3.2, 2.9, 3.1],
        }
        values = run.per_layer_metrics(traced, untraced_p50_ms=3.0)
        self.assertAlmostEqual(values["net.self_ms"], 0.5)
        self.assertAlmostEqual(values["serve.self_ms"], 0.25)
        self.assertAlmostEqual(values["sim.cursor_hit_rate"], 0.75)
        self.assertAlmostEqual(values["matching.verify_ratio"], 0.01)
        self.assertAlmostEqual(values["core.refinement_share"], 0.8)
        self.assertAlmostEqual(values["core.postprocess_share"], 0.2)
        line = json.loads(run.result_line(True, 8, 0, values, run.PER_LAYER))
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        self.assertEqual(got, want)

    def test_a_missing_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"qps": 1.0}, run.END_TO_END)

    def test_workloads_match_the_benchmark_file(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
