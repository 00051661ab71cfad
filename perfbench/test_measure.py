"""Tests of the benchmark's own arithmetic and guards.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

PERFBENCH_E2E=1 also runs one workload end to end on a non-default seed
(builds the program first; about a minute)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

import measure
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_quantiles(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(measure.median(values), 5.5)
        self.assertEqual(measure.quartiles(values), (2.75, 8.25))
        self.assertAlmostEqual(measure.spread(values), 5.5 / 5.5)

    def test_spread_is_a_share_of_the_median(self):
        self.assertEqual(measure.spread([4.0, 4.0, 4.0, 4.0]), 0.0)
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q3 = measure.quartiles(values)
        self.assertAlmostEqual(measure.spread(values), (q3 - q1) / 10.0)


class Spans(unittest.TestCase):
    @staticmethod
    def span(start, end, parent=None):
        return {"start": start, "end": end, "parent": parent}

    def test_union_merges_overlaps(self):
        self.assertEqual(measure.union_length([]), 0.0)
        self.assertEqual(measure.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertEqual(measure.union_length([(5, 6), (0, 10)]), 10.0)

    def test_self_time_subtracts_the_union_of_parallel_children(self):
        spans = [
            self.span(0, 10),
            self.span(1, 4, 0),
            self.span(3, 6, 0),   # overlaps its sibling: counted once
            self.span(8, 12, 0),  # runs past the parent: clipped
            self.span(2, 3, 1),   # grandchild: only its parent's concern
        ]
        self.assertEqual(measure.self_times(spans), [3.0, 2.0, 3.0, 4.0, 1.0])

    def test_concatenated_spans_keep_their_parents(self):
        a = [self.span(0, 5), self.span(1, 2, 0)]
        b = [self.span(0, 3), self.span(1, 2, 0)]
        joined = workloads.concat_spans(a, b)
        self.assertEqual([s["parent"] for s in joined], [None, 0, None, 2])

    def test_top_level_coverage_ignores_children_and_clean_up(self):
        spans = [self.span(0, 4), self.span(1, 2, 0), self.span(5, 9), self.span(9, 12)]
        self.assertAlmostEqual(measure.top_level_coverage(spans, 10.0), 0.9)


# Child process: starts a grandchild that holds ~64 MiB and burns CPU,
# waits for it, then burns CPU itself.
TREE = r"""
import subprocess, sys, time
def burn(s):
    end = time.process_time() + s
    while time.process_time() < end:
        pass
grand = ("import time\nb = bytearray(64 << 20)\nfor i in range(0, len(b), 4096): b[i] = 1\n"
         "end = time.process_time() + 0.3\nwhile time.process_time() < end: pass\n")
subprocess.run([sys.executable, "-c", grand], check=True)
burn(0.2)
"""


class Rusage(unittest.TestCase):
    def tree(self):
        proc = subprocess.Popen([sys.executable, "-c", TREE])
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.assertEqual(proc.returncode, 0)
        return usage

    def test_a_tree_includes_its_waited_descendants(self):
        tree = measure.tree_usage(self.tree())
        # 0.3 s in the grandchild + 0.2 s in the child, less timer slack.
        self.assertGreaterEqual(tree["cpu_s"], 0.5 - 0.02)
        # Only the grandchild ever held 64 MiB.
        self.assertGreaterEqual(tree["peak_rss_mb"], 64)


class Names(unittest.TestCase):
    def test_metric_name_validation(self):
        for good in ("wall_s", "core.automc.run_s", "serve.submit_rtt_ms", "9x", "a-b"):
            self.assertTrue(measure.valid_metric_name(good), good)
        for bad in ("", ".x", "_x", "wall s", "wall/s", "x" * 65, "é", None):
            self.assertFalse(measure.valid_metric_name(bad), bad)

    def test_reported_metrics_are_valid_and_declared(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(declared, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertTrue(measure.valid_metric_name(name), name)


class Guards(unittest.TestCase):
    def test_listing_sees_nested_entries(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(workloads.listing(d), [])
            os.makedirs(os.path.join(d, "memo"))
            open(os.path.join(d, "memo", "a.bin"), "w").close()
            open(os.path.join(d, "corpus.json"), "w").close()
            self.assertEqual(workloads.listing(d), ["corpus.json", "memo", "memo/a.bin"])

    def test_table_checks(self):
        row = lambda name: {"algorithm": name}  # noqa: E731
        good = [[row("baseline")] + [row("LMA")] * 10, [row("LMA")] * 10]
        self.assertTrue(all(ok for ok, _ in workloads.table_checks(good)))
        short = [good[0][:-1], good[1]]
        degraded = [good[0], good[1][:-1] + [row("RL (worker unavailable)")]]
        unordered = [good[0][::-1], good[1]]
        for bad in (short, degraded, unordered):
            self.assertFalse(all(ok for ok, _ in workloads.table_checks(bad)))

    def test_digest_is_order_insensitive_for_keys_only(self):
        self.assertEqual(measure.digest({"a": 1, "b": [1, 2]}),
                         measure.digest({"b": [1, 2], "a": 1}))
        self.assertNotEqual(measure.digest([1, 2]), measure.digest([2, 1]))


@unittest.skipUnless(os.environ.get("PERFBENCH_E2E") == "1", "set PERFBENCH_E2E=1")
class EndToEnd(unittest.TestCase):
    def test_a_non_default_seed_runs_clean(self):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fleet_table2",
             "--seed", "7", "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stdout[-2000:] + out.stderr[-2000:])
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
