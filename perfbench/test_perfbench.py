#!/usr/bin/env python3
"""Smoke-size tests of the round benchmark.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with --smoke, which shrinks every
workload to a few seconds. The first test builds the benchmark (into
$CARGO_TARGET_DIR or .bench_build).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=7):
    """Runs one smoke-size benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False, timeout=900)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n"), proc.stderr


def info_line(lines, key):
    for line in lines:
        if line.startswith("{") and f'"{key}"' in line:
            return json.loads(line)
    raise AssertionError(f"no output line with {key!r}")


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")


class MetricsTest(unittest.TestCase):
    def check_metrics(self, workload, trace, group):
        code, lines, err = run(workload, trace)
        self.assertEqual(code, 0, err[-2000:])
        last = lines[-1]
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        for name, unit in want.items():
            # Exactly once in the raw line: JSON parsing would hide a repeat.
            self.assertEqual(len(re.findall(f'"{re.escape(name)}": ', last)), 1, name)
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
        self.assertEqual(set(result["metrics"]), set(want))
        return result, lines

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = self.check_metrics(w, 0, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_attributes_round_wall(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = self.check_metrics(w, 1, "per_layer")
                self.assertGreaterEqual(result["metrics"]["core.attributed_frac"]["value"], 0.95)

    def test_same_seed_same_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, first, _ = run(w, 0, seed=11)
                _, second, _ = run(w, 0, seed=11)
                self.assertEqual(info_line(first, "digest")["digest"],
                                 info_line(second, "digest")["digest"])


if __name__ == "__main__":
    unittest.main()
