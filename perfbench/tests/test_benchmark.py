#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from anywhere:

    python3 perfbench/tests/test_benchmark.py

Builds the benchmark like run.py does, runs its C++ tests (decorator
transparency, span accounting, failure accounting), checks BENCHMARK.json's
names, and runs every workload briefly in both modes to check that every
declared (metric, workload) pair is printed.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = bench.load_spec()

    def test_metric_and_workload_names_are_valid_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT.pattern + "$", m)
                self.assertIn(m["better"], ("higher", "lower"), m)
                if group == "end_to_end":
                    self.assertLessEqual(m["bound"], 0.25, m)
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)), "duplicate names")

    def test_setup_time_is_declared(self):
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


class CppTest(unittest.TestCase):
    def test_decorators_tracer_and_beat_check(self):
        binary = bench.build("perfbench_test")
        self.assertEqual(subprocess.run([str(binary)]).returncode, 0)


class EveryPairPrintedTest(unittest.TestCase):
    def test_every_declared_metric_is_printed_on_every_workload(self):
        spec = bench.load_spec()
        for w in spec["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(ROOT / "perfbench" / "run.py"),
                         "--workload", w["name"], "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, check=True)
                    lines = out.stdout.strip().split("\n")
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in spec[group]})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    host = json.loads(lines[0].split(": ", 1)[1])
                    self.assertEqual((host["workload"], host["seed"]),
                                     (w["name"], 3))
                    for key in ("cpu", "nproc", "isa", "compiler",
                                "build_type", "commit"):
                        self.assertIn(key, host)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
