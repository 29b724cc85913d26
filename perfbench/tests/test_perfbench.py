"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench/tests -v     (from the repo root)

They build the benchmark like the real runs do and use the tiny input size,
so the whole file takes a few minutes (most of it the self-comparison).
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))


class TinyRun(unittest.TestCase):
    """A tiny run emits every named metric, with its unit, and passes its checks."""

    def check_run(self, workload, trace, key):
        expected = {m["name"]: m["unit"] for m in spec()[key]}
        done = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny"])
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], expected[name], name)
            self.assertIsInstance(m["value"], (int, float))
            self.assertTrue(math.isfinite(m["value"]), name)
            if key == "end_to_end":
                self.assertGreater(m["value"], 0, name)
        counts = re.search(r"(\d+) of (\d+) inputs have a reference digest", done.stdout)
        self.assertEqual(counts.group(1), counts.group(2), "every input has a reference")

    def test_end_to_end_metrics(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0, "end_to_end")

    def test_per_layer_metrics(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, "per_layer")
                out = os.path.join(ROOT, ".bench_build", "perfbench")
                with open(os.path.join(out, f"{w['name']}-seed0.trace.json")) as f:
                    self.assertIn("traceEvents", json.load(f))
                self.assertTrue(os.path.exists(os.path.join(out, f"{w['name']}-seed0.layers.txt")))

    def test_wrong_reference_fails_the_run(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump({"tiny": {"scale": {"0": {"digest": "00000000"}}}}, f)
        try:
            done = run(["--workload", "scale", "--seed", "0", "--seconds", "1",
                        "--trace", "0", "--size", "tiny", "--references", f.name])
        finally:
            os.unlink(f.name)
        self.assertEqual(done.returncode, 1)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertIs(result["correct"], False)
        # the warm-up and the first timed pass run input seed 0
        self.assertEqual(result["failed"], 2)


class Standalone(unittest.TestCase):
    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run(["--workload", "scale", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=d)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)


class SelfCompare(unittest.TestCase):
    def test_build_against_itself_reports_nothing_worse(self):
        done = subprocess.run(
            [sys.executable, os.path.join("perfbench", "compare.py"), "--base", ".",
             "--head", ".", "--pairs", "10", "--seconds", "1", "--size", "tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=1800)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertNotIn("worse", done.stdout.split("verdict", 1)[1])


if __name__ == "__main__":
    unittest.main()
