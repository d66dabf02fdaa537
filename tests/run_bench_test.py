#!/usr/bin/env python3
"""Tests for the determinism gate in tools/run_bench.py.

Each case points --build-dir at a temporary tree of fake bench scripts
that speak the harness flags (--json PATH, --jobs N, ...), so the gate's
own verdicts are checked without building or running the simulator.

Run: python3 tests/run_bench_test.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

RUN_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "tools", "run_bench.py")

# A bench that prints one table row and the [bench] footer, and writes
# the harness JSON. With LEAK_JOBS the table row shows its --jobs value,
# which is exactly what the gate must catch.
FAKE_BENCH = """#!{python}
import json, sys
args = sys.argv[1:]
def flag(name, default):
    return args[args.index(name) + 1] if name in args else default
jobs = int(flag("--jobs", "0")) or 4
row = "| row | 7 |" + (" jobs=%d" % jobs if {leak_jobs} else "")
print(row)
print("[bench] {name}: trials=1 base_seed=42 jobs=%d events=7" % jobs)
with open(flag("--json", None), "w") as f:
    json.dump({{"bench": "{name}", "trials": 1, "base_seed": 42,
               "jobs": jobs, "events": 7}}, f)
"""


def load_run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", RUN_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RunBenchGateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        self.bench_dir = os.path.join(self.root, "bench")
        os.mkdir(self.bench_dir)
        for name in load_run_bench().BENCHES:
            self.write_bench(name, leak_jobs=False)

    def tearDown(self):
        self.tmp.cleanup()

    def write_bench(self, name, leak_jobs):
        path = os.path.join(self.bench_dir, name)
        with open(path, "w") as f:
            f.write(FAKE_BENCH.format(python=sys.executable, name=name,
                                      leak_jobs=leak_jobs))
        os.chmod(path, 0o755)

    def run_gate(self):
        out = os.path.join(self.root, "BENCH.json")
        proc = subprocess.run(
            [sys.executable, RUN_BENCH, "--build-dir", self.root,
             "--quick", "--out", out],
            capture_output=True, text=True, timeout=120)
        return proc, out

    def test_jobs_independent_tables_pass(self):
        proc, out = self.run_gate()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(out) as f:
            report = json.load(f)
        self.assertEqual(len(report["gates"]), 3)
        self.assertEqual(set(report["benches"][0]),
                         {"bench", "trials", "base_seed", "jobs", "events"})

    def test_table_row_with_jobs_value_fails_naming_the_bench(self):
        self.write_bench("bench_montecarlo", leak_jobs=True)
        proc, out = self.run_gate()
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("bench_montecarlo", proc.stderr)
        self.assertIn("differs", proc.stderr)
        self.assertFalse(os.path.exists(out))

    def test_missing_gate_binary_exits_2_naming_it(self):
        os.unlink(os.path.join(self.bench_dir, "bench_fleet"))
        proc, _ = self.run_gate()
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("bench_fleet", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertNotIn("trials=", proc.stdout)


if __name__ == "__main__":
    unittest.main()
