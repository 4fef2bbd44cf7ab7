"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v     # from the checkout root

They build the benchmark if needed, then run every workload at the tiny
scale, traced and untraced, and check the results against BENCHMARK.json.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
import build  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(cwd, *args, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def smoke(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout.splitlines()


class SmokeRuns(unittest.TestCase):
    """One tiny run per workload and trace mode, shared by the tests below."""

    outputs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.outputs[(w, trace)] = smoke(w, trace)

    def result(self, w, trace):
        return json.loads(self.outputs[(w, trace)][-1])

    def test_every_workload_passes_its_checks(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                r = self.result(w, trace)
                self.assertTrue(r["correct"], f"{w} trace={trace}: {self.outputs[(w, trace)]}")
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
            self.assertEqual(self.result(w, 0)["metrics"]["passed_share"]["value"], 1.0)
            self.assertIn("failed_share", "\n".join(self.outputs[(w, 0)]))

    def test_metric_names_and_units_match_benchmark_json(self):
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            declared = {m["name"]: m["unit"] for m in BENCH[key]}
            for w in WORKLOADS:
                got = {n: m["unit"] for n, m in self.result(w, trace)["metrics"].items()}
                self.assertEqual(got, declared, f"{w} trace={trace}")

    def test_end_to_end_metrics_are_never_zero(self):
        for w in WORKLOADS:
            for name, m in self.result(w, 0)["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_result_line_round_trips(self):
        for (w, trace), lines in self.outputs.items():
            line = lines[-1]
            parsed = json.loads(line)
            self.assertEqual(set(parsed), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(json.loads(json.dumps(parsed)), parsed)
            for m in parsed["metrics"].values():
                self.assertEqual(set(m), {"value", "unit"})
                self.assertIsInstance(m["value"], (int, float))
            written = build.build_dir() / "perfbench" / "results" / f"{w}-seed3-trace{trace}.json"
            self.assertEqual(json.loads(written.read_text())["result"], parsed)

    def test_run_context_is_recorded(self):
        for w in WORKLOADS:
            ctx = json.loads(next(l for l in self.outputs[(w, 0)] if l.startswith("context "))[8:])
            for k in ("seed", "inputs", "nproc", "jdk", "spark", "spark_master", "shuffle_partitions",
                      "pass_workers"):
                self.assertIn(k, ctx, w)
            self.assertEqual(ctx["seed"], 3)


class Contract(unittest.TestCase):

    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        names = [w["name"] for w in BENCH["workloads"]] + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_unknown_workload_is_refused(self):
        done = run(ROOT, "--workload", "no-such-workload", "--seed", "1", "--seconds", "1")
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("one of " + ", ".join(WORKLOADS), done.stderr)

    def test_fails_without_the_program(self):
        build.build_dir().mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build.build_dir()) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(done.stdout.strip().endswith("}"), done.stdout)


if __name__ == "__main__":
    unittest.main()
