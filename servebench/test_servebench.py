#!/usr/bin/env python3
"""The serving benchmark's own tests, at smoke size (about a minute).

    python3 servebench/test_servebench.py

Checks that every workload (also interactive-chain, which BENCHMARK.json
leaves out), untraced and traced, passes its answer checks and prints
exactly the metrics BENCHMARK.json declares; that a corrupted
reference fails the run; and that the benchmark refuses to run without the
repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    r = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                       capture_output=True, text=True, cwd=ROOT, timeout=900)
    return r.returncode, r.stdout, r.stderr


class SmokeTest(unittest.TestCase):
    def check_result(self, out, names):
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_workloads(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        for w in run.WORKLOADS:
            for trace, names in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    code, out, err = bench("--workload", w, "--seed", "7",
                                           "--seconds", "2", "--trace", trace,
                                           "--smoke")
                    self.assertEqual(code, 0, err)
                    result = self.check_result(out, names)
                    if trace == "0":
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_same_seed_same_inputs(self):
        ds = []
        for _ in range(2):
            code, out, err = bench("--workload", "stream-chain", "--seed", "9",
                                   "--seconds", "1", "--smoke")
            self.assertEqual(code, 0, err)
            record = json.loads(out.splitlines()[-2].removeprefix("# record "))
            ds.append((record["fact_lines"], record["reference"]))
        self.assertEqual(ds[0], ds[1])

    def test_corrupt_reference_fails(self):
        exe, server = run.build(run.build_dir())
        r = subprocess.run([str(exe), "--workload", "stream-chain", "--seed", "3",
                            "--seconds", "1", "--trace", "0", "--smoke",
                            "--server", str(server), "--out-dir",
                            str(run.build_dir() / "servebench-runs"),
                            "--corrupt-reference"],
                           capture_output=True, text=True, timeout=120)
        self.assertEqual(r.returncode, 1)
        self.assertFalse(json.loads(r.stdout.strip().splitlines()[-1])["correct"])
        self.assertIn("MISMATCH", r.stderr)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "servebench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            r = subprocess.run([sys.executable, "servebench/run.py", "--workload",
                                "stream-chain", "--seed", "1", "--seconds", "1"],
                               capture_output=True, text=True, cwd=tmp, env=env,
                               timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
