#!/usr/bin/env python3
"""Self-tests of the engine-mode benchmark: tiny-SF smoke runs.

Run from the root of a source checkout:

    python3 -m unittest discover -s enginebench/tests -v

Each workload runs at a tiny scale factor. The tests check that every
metric BENCHMARK.json names is emitted with its unit, that a corrupted
golden answer is detected, that the traced run leaves little of each
query's wall time unattributed, that idle_cores is measured only after the
last cursor reached end of stream, and that every elastic query made its
DOP calls.
"""

import json
import os
import subprocess
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(TESTS_DIR)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

# Tiny scale factors keep each run to a few seconds.
TINY_SF = {"tpch_serial": 0.01, "dashboard_concurrent": 0.01,
           "elastic_dop": 0.02}


def run_bench(workload, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace),
           "--sf", str(TINY_SF[workload])] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    meta = None
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
    return proc, result, meta


class EngineBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for workload in TINY_SF:
            for trace in (0, 1):
                cls.runs[workload, trace] = run_bench(workload, trace)

    def test_every_metric_emitted_with_unit(self):
        for (workload, trace), (proc, result, _) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                wanted = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {m["name"]: m["unit"] for m in wanted},
                    {name: m["unit"] for name, m in result["metrics"].items()})
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_workload_names_match_spec(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(TINY_SF))

    def test_corrupted_golden_answer_is_detected(self):
        golden = os.path.join(BENCH_DIR, "golden", "sf0.01.txt")
        corrupt_dir = os.path.join(ROOT, ".bench_build", "selftest")
        os.makedirs(corrupt_dir, exist_ok=True)
        corrupt = os.path.join(corrupt_dir, "corrupt_golden.txt")
        with open(golden) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("tpch_q3 "):
                key, rows, checksum = line.split()
                lines[i] = "%s %s %d" % (key, rows, (int(checksum) + 1) % 2**64)
        with open(corrupt, "w") as f:
            f.write("\n".join(lines) + "\n")
        proc, result, _ = run_bench("tpch_serial", 0, ["--golden", corrupt])
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("tpch_q3", proc.stderr)

    def test_unattributed_time_is_small(self):
        for workload in TINY_SF:
            with self.subTest(workload=workload):
                _, result, _ = self.runs[workload, 1]
                frac = result["metrics"]["trace.unattributed_frac"]["value"]
                self.assertLess(frac, 0.05)

    def test_idle_measured_after_last_end_of_stream(self):
        for (workload, trace), (_, result, meta) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertIsNotNone(meta)
                self.assertEqual(meta["mode"], "engine")
                self.assertEqual(meta["queries"], result["attempted"])
                self.assertGreater(meta["last_end_of_stream_us"], 0)
                self.assertGreaterEqual(meta["quiet_start_us"],
                                        meta["last_end_of_stream_us"])
                self.assertGreater(meta["quiet_ms"], 0)

    def test_every_elastic_query_switched_dop(self):
        # 3 scale-out calls (join stage, scan stage, scan task DOP) and 2
        # scale-in calls (join stage, scan stage) per query.
        for trace in (0, 1):
            with self.subTest(trace=trace):
                _, result, meta = self.runs["elastic_dop", trace]
                self.assertEqual(meta["dop_calls"], 5 * result["attempted"])
        for workload in ("tpch_serial", "dashboard_concurrent"):
            with self.subTest(workload=workload):
                self.assertEqual(self.runs[workload, 0][2]["dop_calls"], 0)


if __name__ == "__main__":
    unittest.main()
