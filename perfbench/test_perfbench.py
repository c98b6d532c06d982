"""Tests of the benchmark itself (stdlib unittest, no library changes).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


class TailRule(unittest.TestCase):
    def test_exactly_ten_samples_lie_beyond(self):
        for n in (11, 20, 37, 100):
            values = list(range(1, n + 1))
            value, percentile, count = stats.tail(values)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertEqual(count, n)
            self.assertAlmostEqual(percentile, 100 * (n - 10) / n)

    def test_hundred_samples_give_p90(self):
        value, percentile, _ = stats.tail(list(range(100, 0, -1)))
        self.assertEqual((value, percentile), (90, 90.0))

    def test_ten_or_fewer_samples_fall_back_to_minimum(self):
        self.assertEqual(stats.tail([5, 3, 9]), (3, 0.0, 3))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # (id, parent, trial, name, start, end, leaf_ns)
        spans = [
            (1, None, 0, "harness.run", 0, 100, 0),
            (2, 1, 0, "online.step", 10, 40, 5),
            (3, 2, 0, "online.predict", 15, 25, 0),
            (4, 1, 0, "cover.build", 50, 90, 0),
        ]
        own = self_times(spans)
        self.assertEqual(own, {1: 30, 2: 15, 3: 10, 4: 40})
        self.assertEqual(sum(own.values()) + 5, 100)

    def test_wrappers_account_for_the_root_duration(self):
        ticks = iter(range(0, 10_000, 7))
        tracer = Tracer(clock=lambda: next(ticks))
        leaf = tracer.leaf("gf2.leaf", lambda: None)

        def inner():
            leaf()
            leaf()

        inner_span = tracer.span("online.inner", inner)

        def outer():
            inner_span()
            leaf()

        root = tracer.span("harness.outer", outer)
        tracer.trial = 0
        root()
        own = self_times(tracer.spans)
        busy = sum(b for (_t, _n), (_c, b) in tracer.leaves.items())
        (start, end), = [(s[4], s[5]) for s in tracer.spans if s[1] is None]
        self.assertEqual(sum(own.values()) + busy, end - start)
        self.assertEqual(tracer.leaves[(0, "gf2.leaf")][0], 3)
        self.assertTrue(all(v > 0 for v in own.values()))


class Verdict(unittest.TestCase):
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def test_clear_gain_and_loss(self):
        faster = [v * 0.8 for v in self.parent]
        slower = [v * 1.3 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, faster, "lower", 0.1),
                         ("improved", 1.0))
        self.assertEqual(stats.verdict(self.parent, slower, "lower", 0.1)[0], "worse")
        self.assertEqual(stats.verdict(self.parent, slower, "higher", 0.1)[0],
                         "improved")

    def test_ties_count_for_neither_side(self):
        change = [v * 0.8 for v in self.parent]
        change[0] = self.parent[0]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         ("improved", 0.9))
        change[1] = self.parent[1]
        verdict, share = stats.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(share, 0.8)
        self.assertNotEqual(verdict, "improved")

    def test_identical_runs_are_unchanged(self):
        self.assertEqual(stats.verdict(self.parent, self.parent, "lower", 0.1),
                         ("unchanged", 0.0))
        counts = [12457.0] * 10
        self.assertEqual(
            stats.verdict(counts, counts, "lower", 0.1, exact=True)[0], "unchanged"
        )

    def test_exact_counts_that_differ_are_not_unchanged_outright(self):
        before = [100.0] * 10
        after = [90.0] * 10
        self.assertEqual(stats.verdict(before, after, "lower", exact=True)[0],
                         "improved")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
        change = [v * 1.05 for v in reversed(noisy)]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1)[0], "unresolved")
        self.assertEqual(stats.verdict(noisy, change, "lower")[0], "unchanged")

    def test_worse_beyond_bound_without_nine_tenths(self):
        change = [v * 1.2 for v in self.parent]
        change[:2] = [0.5, 0.5]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1)[0], "worse")


class Consistency(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
            [(n, u, b, bound) for n, u, b, bound, _e in metrics.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(n, u, b) for n, u, b, _e in metrics.PER_LAYER],
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_pinned_digest_mismatch_is_a_failed_check(self):
        trial = run.Trial(1, {"samples": 3}, [], None)
        original = run.pinned_digests
        run.pinned_digests = lambda workload, seed: ["0" * 16]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                problems = run.verify(run.WORKLOADS["noisy-mitm"], 1, [trial], [])
        finally:
            run.pinned_digests = original
        self.assertTrue(any("pinned" in p for p in problems))

    def test_without_the_library_the_run_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "noisy-mitm",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


def smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, result


class Smoke(unittest.TestCase):
    """One or two trials of each workload, traced and untraced."""

    def check(self, workload, trace):
        code, result = smoke(workload, trace)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        names = metrics.PER_LAYER if trace else metrics.END_TO_END
        self.assertEqual(list(result["metrics"]), [n for n, *_ in names])
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check(workload, 0)
                self.assertTrue(all(v > 0 for v in values.values()), values)

    def test_traced_layers_match_each_workload(self):
        chart_layers = ("online.rounds", "gf2.constrain_calls", "cover.attempts")
        noisy = self.check("noisy-mitm", 1)
        for name in chart_layers + ("pac.runs", "online.self_s", "gf2.self_s"):
            self.assertEqual(noisy[name], 0, name)
        self.assertEqual(noisy["noisy.flip_sets"], 10701)
        noiseless = self.check("noiseless-charts", 1)
        for name in ("noisy.flip_sets", "noisy.self_s", "pac.runs", "pac.self_s"):
            self.assertEqual(noiseless[name], 0, name)
        self.assertGreater(noiseless["online.rounds"], 0)
        charts = self.check("noisy-charts", 1)
        self.assertEqual(charts["noisy.flip_sets"], 68)
        self.assertEqual(charts["sources.examples"], 7584)
        self.assertGreater(charts["pac.runs"], 0)
        for values in (noisy, noiseless, charts):
            self.assertAlmostEqual(values["trace.accounted_frac"], 1.0, delta=0.02)


if __name__ == "__main__":
    unittest.main()
