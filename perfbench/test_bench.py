#!/usr/bin/env python3
"""Tests of the benchmark itself, at its seconds-long smoke size.

Run from the root of a checkout:

    python3 perfbench/test_bench.py

For every workload in BENCHMARK.json: an untraced run must print every
end-to-end metric, and a traced run every per-layer metric, each with the
unit BENCHMARK.json gives it, on the last line and on a per-metric line
before it; and a run whose expected answer is deliberately wrong, or one
of whose queries is deliberately malformed so that Search refuses it, must
fail its correctness check instead of reporting numbers.
"""

import json
import subprocess
import sys
import unittest

SMOKE = ["--seed", "7", "--seconds", "1", "--size", "smoke"]


def bench(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", str(trace)] + SMOKE + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def check_metrics(self, workload, trace, kind):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, wanted)
        for name, unit in wanted.items():
            value = result["metrics"][name]["value"]
            self.assertIsInstance(value, (int, float), name)
            # The per-metric line names the metric, its unit and samples.
            self.assertTrue(any(line.split()[1:2] == [name] and
                                (" %s (samples " % unit) in line
                                for line in lines[:-1]), name)
        if kind == "end_to_end":
            for name in wanted:
                self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 0, "end_to_end")

    def test_per_layer_metrics_printed_with_units(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                self.check_metrics(workload, 1, "per_layer")

    def check_run_fails(self, flag):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc = bench(workload, 0, flag)
                self.assertNotEqual(proc.returncode, 0)
                result = json.loads(proc.stdout.strip().split("\n")[-1])
                self.assertIs(result["correct"], False)
                self.assertEqual(result["metrics"], {})

    def test_wrong_expected_answer_fails_the_run(self):
        self.check_run_fails("--inject-wrong-answer")

    def test_query_error_fails_the_run(self):
        self.check_run_fails("--inject-failed-query")


if __name__ == "__main__":
    unittest.main()
