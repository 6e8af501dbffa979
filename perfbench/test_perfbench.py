#!/usr/bin/env python3
"""The benchmark's own tests, on --smoke workloads (a few ranks each).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that correctness gates pass, that the sim clock and byte
ratios are bit-identical across two runs of one seed, and that the command
fails without printing a result when the collrep sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ContractTest(unittest.TestCase):
    def check_metrics(self, workload, trace, declared):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_line(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
            # The human table prints each metric with its unit too.
            self.assertRegex(proc.stdout, rf"\n  {re.escape(name)} +\S+ "
                                          rf"{re.escape(m['unit'])}")
        return result

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.check_metrics(w, 0, CONTRACT["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, CONTRACT["per_layer"])

    def test_sim_clock_is_deterministic(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = result_line(run_bench(w, 0, seed=11))["metrics"]
                b = result_line(run_bench(w, 0, seed=11))["metrics"]
                exact = [n for n, m in a.items()
                         if m["unit"] in ("sim_s", "B/B")]
                self.assertTrue(exact)
                for name in exact:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)

    def test_fails_without_sources(self):
        build_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in CONTRACT["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            cmd = CONTRACT["command"] + ["--workload", WORKLOADS[0],
                                         "--seed", "1", "--seconds", "1",
                                         "--trace", "0"]
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
