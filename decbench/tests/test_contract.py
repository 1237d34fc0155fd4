#!/usr/bin/env python3
"""Tests of the decision benchmark's contract.

Run from the root of a checkout:

    python3 decbench/tests/test_contract.py

They build the benchmark (as decbench/run.py does), run its C++ unit
checks (seeded inputs, percentile rule, digest gate), run every workload
briefly untraced and traced, and check that the printed metric names and
units are exactly those of BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (decbench/run.py)

WORKLOADS = [w["name"] for w in
             json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]


def bench(workload, trace, seed=1, seconds=0.5, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "decbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


class UnitChecks(unittest.TestCase):
    def test_selftest_binary(self):
        bdir = run.build_dir()
        self.assertIsNotNone(run.build(bdir))
        subprocess.run(["cmake", "--build", bdir, "--target",
                        "decbench_selftest", "--parallel", "4"],
                       check=True, stdout=subprocess.DEVNULL)
        r = subprocess.run([os.path.join(bdir, "decbench_selftest")],
                           capture_output=True, text=True, check=False)
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("PASS", r.stdout)


class Contract(unittest.TestCase):
    def check_run(self, workload, trace):
        r = bench(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        result = json.loads(r.stdout.strip().split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = run.expected_metrics(bool(trace))
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        # Every printed metric also appears on its own line with its unit.
        for name, unit in want.items():
            self.assertRegex(r.stdout, rf"\n  {name} = \S+ {unit}\b")
        self.assertIn("provenance {", r.stdout)

    def test_untraced_metrics_match_benchmark_json(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0)

    def test_traced_metrics_match_benchmark_json(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1)

    def test_result_with_wrong_metrics_is_refused(self):
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {k: {"value": 1.0, "unit": u}
                            for k, u in run.expected_metrics(False).items()}}
        self.assertIsNone(run.check_result(json.dumps(good), False))
        renamed = json.loads(json.dumps(good))
        renamed["metrics"]["setup_seconds"] = renamed["metrics"].pop("setup_s")
        self.assertIsNotNone(run.check_result(json.dumps(renamed), False))
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        self.assertIsNotNone(run.check_result(json.dumps(wrong_unit), False))

    def test_unknown_workload_fails_without_result(self):
        r = bench("no_such_workload", 0)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)

    def test_fails_without_the_repository_sources(self):
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=out)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "decbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = bench(WORKLOADS[0], 0, cwd=tmp)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main(verbosity=2)
