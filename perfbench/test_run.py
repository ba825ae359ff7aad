#!/usr/bin/env python3
"""The benchmark's own tests: a small-size run of every workload, untraced
and traced, through `run.py`.

    python3 perfbench/test_run.py

Each run must pass its output checks and print exactly the metrics
`BENCHMARK.json` lists for its pass, each with its unit.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def listed(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def check(self, trace, section):
        units = listed(section)
        # Every workload run.py knows, including kernel-burst, which
        # BENCHMARK.json leaves out as too noisy on a shared box.
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = smoke(workload, trace)
                self.assertEqual(code, 0)
                self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, units)
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_runs_print_every_per_layer_metric(self):
        self.check(1, "per_layer")


class Usage(unittest.TestCase):
    def test_unknown_workload_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "0", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
