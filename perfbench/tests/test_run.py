"""Tests of perfbench/run.py and BENCHMARK.json.

Run from the benchmark's CMake build (ctest sets PERFBENCH_BIN) or directly:

    PERFBENCH_BIN=.bench_build/perfbench python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BINARY = os.environ.get("PERFBENCH_BIN")


def run_bench(*args, env=None, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600, check=False)


class MetricNameTest(unittest.TestCase):
    def test_alphabet(self):
        self.assertTrue(run.valid_metric_name("planner.plan_s"))
        self.assertTrue(run.valid_metric_name("0-ratio"))
        self.assertTrue(run.valid_metric_name("a" * 64))
        for bad in ["", "_x", ".x", "a b", "rx/s", "a" * 65]:
            self.assertFalse(run.valid_metric_name(bad), bad)


class BenchmarkSpecTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], run.WORKLOADS)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        names = []
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(run.valid_metric_name(name), name)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_digests_record_every_held_out_seed(self):
        data = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
        for workload in run.WORKLOADS:
            held = str(data["held_out"][workload])
            self.assertIn(held, data["digests"][workload])


@unittest.skipUnless(BINARY, "PERFBENCH_BIN is not set")
class OutputSchemaTest(unittest.TestCase):
    def check_result_line(self, trace):
        done = run_bench("--workload", "paper-eval", "--seed", "5", "--seconds", "1",
                         "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in want])
        for m in want:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        return result

    def test_end_to_end_line(self):
        result = self.check_result_line(0)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_per_layer_line(self):
        result = self.check_result_line(1)
        self.assertGreater(result["metrics"]["planner.plans"]["value"], 0)
        self.assertEqual(result["metrics"]["runx.city_compiles"]["value"], 10)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result, exit != 0.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_BIN"}
            done = run_bench("--workload", "hotspot", "--seed", "1", "--seconds", "1",
                             "--trace", "0", env=env, cwd=tmp,
                             script=Path(tmp) / "perfbench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
