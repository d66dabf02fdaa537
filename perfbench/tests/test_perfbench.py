"""Tests of the benchmark's own contract.

Run from the repository root (the first test builds the driver):

    python3 -m unittest discover -s perfbench/tests -v
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["fleet_k16", "paper_race", "defense_stack"]
HELD_OUT_SEED = "2026"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(*args, cwd=ROOT, script=RUN):
    """Run the benchmark; returns (exit code, result or None, stderr)."""
    done = subprocess.run(["python3", script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def digest_line(stderr, workload):
    match = re.search(r"^perfbench: digests %s \d+((?: [0-9a-f]{16})+)" %
                      workload, stderr, re.M)
    return match.group(1).split() if match else None


class Contract(unittest.TestCase):
    def test_every_end_to_end_metric_printed_with_unit(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for workload in WORKLOADS:
            code, result, err = bench("--workload", workload, "--seconds", "1")
            self.assertEqual(code, 0, err)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, expected, workload)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
            self.assertIn("match committed", err)

    def test_held_out_seed_matches_committed_digests(self):
        for workload in WORKLOADS:
            code, result, err = bench("--workload", workload, "--seconds",
                                      "0.5", "--seed", HELD_OUT_SEED)
            self.assertEqual(code, 0, err)
            self.assertTrue(result["correct"])
            self.assertIn("match committed", err)

    def test_traced_run_prints_every_layer_metric_and_same_digest(self):
        expected = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        for workload in WORKLOADS:
            code, plain, plain_err = bench("--workload", workload,
                                           "--seconds", "1")
            self.assertEqual(code, 0, plain_err)
            code, traced, traced_err = bench("--workload", workload,
                                             "--seconds", "2", "--trace", "1")
            self.assertEqual(code, 0, traced_err)
            self.assertTrue(traced["correct"])
            got = {k: v["unit"] for k, v in traced["metrics"].items()}
            self.assertEqual(got, expected, workload)
            self.assertGreater(
                traced["metrics"]["obs.trace_overhead_ratio"]["value"], 0)
            self.assertEqual(digest_line(plain_err, workload),
                             digest_line(traced_err, workload), workload)
            self.assertIsNotNone(digest_line(traced_err, workload))

    def test_perturbed_digest_is_caught(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            with open(os.path.join(BENCH_DIR, "digests.txt")) as f:
                lines = f.read().splitlines()
            for i, line in enumerate(lines):
                if line.startswith("paper_race 1 "):
                    fields = line.split()
                    first = fields[2]
                    fields[2] = ("0" if first[0] != "0" else "1") + first[1:]
                    lines[i] = " ".join(fields)
            perturbed = os.path.join(tmp, "digests.txt")
            with open(perturbed, "w") as f:
                f.write("\n".join(lines) + "\n")
            code, result, err = bench("--workload", "paper_race", "--seconds",
                                      "0.5", "--digests", perturbed)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("MISMATCH", err)

    def test_mistyped_or_malformed_flags_exit_2(self):
        for args in (["--workload", "paper_race", "--trails", "3"],
                     ["--workload", "paper_race", "--seed", "12x"],
                     ["--workload", "paper_race", "--seed", "-1"],
                     ["--workload", "paper_race", "--seconds", "0"],
                     ["--workload", "paper_race", "--trace", "2"],
                     ["--workload", "paper_rase"],
                     ["--seed", "1"]):
            code, result, err = bench(*args)
            self.assertEqual(code, 2, args)
            self.assertIsNone(result, args)
            self.assertIn("valid flags: --workload --seed --seconds --trace",
                          err)
            self.assertIn("fleet_k16 paper_race defense_stack", err)

    def test_run_length_defaults_to_run_seconds(self):
        sys.path.insert(0, BENCH_DIR)
        try:
            import run
        finally:
            sys.path.remove(BENCH_DIR)
        seconds = str(load_spec()["run_seconds"])
        self.assertEqual(run.with_run_seconds(["--workload", "paper_race"]),
                         ["--workload", "paper_race", "--seconds", seconds])
        for given in (["--seconds", "3"], ["--seconds=3"]):
            self.assertEqual(run.with_run_seconds(given), given)
        # The driver itself has no run length of its own.
        self.assertTrue(run.build())
        done = subprocess.run([os.path.join(run.BUILD, "perfbench"),
                               "--workload", "paper_race"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 2)
        self.assertIn("--seconds is required", done.stderr)

    def test_fails_without_sources(self):
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = bench("--workload", "paper_race", cwd=tmp,
                                    script=os.path.join(tmp, "perfbench",
                                                        "run.py"))
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
