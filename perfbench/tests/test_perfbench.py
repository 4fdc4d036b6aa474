#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds perfbench and its C++ self-test (percentile rule, span self time,
slice medians), checks that BENCHMARK.json lists exactly the metrics the
binary can print, and that short runs of every workload print a well-formed
result whose metric names all appear in BENCHMARK.json.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def setUpModule():
    run.build(("perfbench", "perfbench_selftest"))


def catalog():
    out = subprocess.run([str(run.BUILD / "perfbench"), "--list-metrics"],
                         check=True, capture_output=True, text=True).stdout
    return [tuple(line.split()) for line in out.splitlines()]


def result_of(workload, trace, seconds="0.5"):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", trace],
        check=True, capture_output=True, text=True, cwd=run.ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_cpp_selftest(self):
        subprocess.run([str(run.BUILD / "perfbench_selftest")], check=True)


class BenchmarkJson(unittest.TestCase):
    def test_catalog_matches(self):
        listed = {(m["name"], m["unit"], "end_to_end")
                  for m in BENCHMARK["end_to_end"]}
        listed |= {(m["name"], m["unit"], "per_layer")
                   for m in BENCHMARK["per_layer"]}
        self.assertEqual(set(catalog()), listed)

    def test_contract_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]},
                         set(run.WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in BENCHMARK[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for workload in BENCHMARK["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        for metric in BENCHMARK["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertGreater(metric["bound"], 0)
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in BENCHMARK["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        setup = next(m for m in BENCHMARK["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in BENCHMARK["end_to_end"]))


class ShortRuns(unittest.TestCase):
    def check_result(self, result, kind):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        printed = {name: value["unit"]
                   for name, value in result["metrics"].items()}
        self.assertEqual(printed, expected)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(workload, "0")
                self.check_result(result, "end_to_end")
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_result(result_of("online_replay", "1"), "per_layer")


if __name__ == "__main__":
    unittest.main()
