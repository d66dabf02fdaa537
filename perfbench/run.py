#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_k16|paper_race|defense_stack
                             [--seed N] [--seconds S] [--trace 0|1]

The simulator libraries under src/ and the driver under perfbench/src/
are compiled in Release mode into .bench_build/perfbench (the first run
builds; later runs only rebuild what changed). Build output is shown on
stderr only when a step fails, so the driver's JSON result stays the
last line of stdout. All arguments are passed to the driver, which
rejects unknown flags with exit code 2. Without --seconds, the run
lasts BENCHMARK.json's run_seconds, the length every bound was
measured at.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def with_run_seconds(argv):
    """argv plus --seconds from BENCHMARK.json when the caller gave none."""
    if any(a == "--seconds" or a.startswith("--seconds=") for a in argv):
        return argv
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    return argv + ["--seconds", str(seconds)]


def main(argv):
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] +
                          with_run_seconds(argv), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
