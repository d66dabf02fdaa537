#!/usr/bin/env python3
"""Determinism gate over the TopoMirage bench suite; writes BENCH.json.

Each trial-looping bench binary under <build-dir>/bench accepts the
shared harness flags (bench/bench_harness.hpp): --trials N, --jobs N,
--quick and --json PATH. Every bench reports simulated results only, so
its stdout minus the `[bench]` footer and its JSON minus "jobs" must not
depend on the worker count or the trial scheduler.

Every call:

  1. runs the suite once (with --quick / --jobs as given) and collects
     the per-bench JSON objects into --out:

         {"benches": [{"bench": ..., "trials": ..., "base_seed": ...,
                       "jobs": ..., "events": ...}, ...],
          "gates": [{"bench": ..., "workload": ..., "runs": [...]}, ...]}

  2. byte-diffs three workloads across worker counts, and fails (exit 1,
     naming the bench) if any run differs from the first:
       - bench_attack_matrix --trials 10 at --jobs 1/2/4/8, plus one
         --legacy-runner run at --jobs 1 (the pre-chunking scheduler);
       - bench_montecarlo --quick at --jobs 1 vs 8 (the streaming-
         quantile merge);
       - bench_fleet --quick at --jobs 1 vs 8 (the fleet sweep).

Host time is not reported here; perfbench/ is the repo's only timer.

Usage:
    python3 tools/run_bench.py [--build-dir build] [--jobs N] [--quick]
                               [--out BENCH.json]

Exit status: 0 all gates pass, 1 a bench failed or a gate found a diff,
2 setup error (the directory of --out or a bench binary is missing).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Benches that implement the harness flags. Order is the report order.
BENCHES = [
    "bench_table1_probes",
    "bench_scan_detection",
    "bench_fig5_iface_up",
    "bench_fig6_controller_ack",
    "bench_fig7_last_ping_start",
    "bench_fig8_ping_timeout",
    "bench_attack_matrix",
    "bench_hijack_matrix",
    "bench_downtime_window",
    "bench_ablation_channel",
    "bench_montecarlo",
    "bench_fleet",
    "bench_anomaly",
]

# (bench, workload, per-run flags): every run's output must equal the
# first run's.
GATES = [
    ("bench_attack_matrix", ["--trials", "10"],  # 10 trials x 20 cells
     [["--jobs", "1"], ["--jobs", "2"], ["--jobs", "4"], ["--jobs", "8"],
      ["--jobs", "1", "--legacy-runner"]]),
    ("bench_montecarlo", ["--quick"], [["--jobs", "1"], ["--jobs", "8"]]),
    ("bench_fleet", ["--quick"], [["--jobs", "1"], ["--jobs", "8"]]),
]


def run_bench(binary, args):
    """Run one bench with --json into a temp file; return (result,
    stdout minus the [bench] lines). A failing bench exits 1."""
    name = os.path.basename(binary)
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = tmp.name
    try:
        proc = subprocess.run([binary, "--json", json_path] + args,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"error: {name} {' '.join(args)} exited "
                     f"{proc.returncode}")
        try:
            with open(json_path) as f:
                result = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"error: {name} {' '.join(args)} wrote no readable "
                     f"--json result: {e}")
    finally:
        os.unlink(json_path)
    table = "\n".join(line for line in proc.stdout.splitlines()
                      if not line.startswith("[bench]"))
    return result, table


def check_gate(bench_dir, name, workload, runs):
    """Run `name` once per entry of `runs`; exit 1 unless each run's
    table and JSON (minus "jobs") equal the first run's."""
    binary = os.path.join(bench_dir, name)
    base = None
    for flags in runs:
        result, table = run_bench(binary, workload + flags)
        result.pop("jobs", None)
        if base is None:
            base = {"stdout": table, "JSON": result}
            continue
        for what, got in (("stdout", table), ("JSON", result)):
            if got != base[what]:
                sys.exit(f"error: {name} {' '.join(workload)}: {what} at "
                         f"{' '.join(flags)} differs from "
                         f"{' '.join(runs[0])} — determinism violation")
    print(f"[run_bench] gate {name} {' '.join(workload)}: "
          f"{len(runs)} runs identical")
    return {"bench": name, "workload": " ".join(workload),
            "runs": [" ".join(flags) for flags in runs]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory holding bench/ binaries")
    ap.add_argument("--jobs", type=int, default=0,
                    help="worker threads per suite bench (0 = hardware)")
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized trial counts for the suite run")
    ap.add_argument("--out", default="BENCH.json",
                    help="combined output path (default BENCH.json)")
    args = ap.parse_args()
    # Fail before the suite runs, not when the report is written.
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        ap.error(f"--out directory {out_dir} does not exist")

    bench_dir = os.path.join(args.build_dir, "bench")
    missing = [name for name in BENCHES
               if not os.path.exists(os.path.join(bench_dir, name))]
    if missing:
        ap.error(f"not built in {bench_dir}: {', '.join(missing)} — build "
                 f"the tree first (cmake --build {args.build_dir} -j)")

    common = ["--quick"] if args.quick else []
    if args.jobs:
        common += ["--jobs", str(args.jobs)]

    report = {"benches": [], "gates": []}
    for name in BENCHES:
        result, _ = run_bench(os.path.join(bench_dir, name), common)
        print(f"[run_bench] {result['bench']}: trials={result['trials']} "
              f"jobs={result['jobs']} events={result['events']}")
        report["benches"].append(result)

    for name, workload, runs in GATES:
        report["gates"].append(check_gate(bench_dir, name, workload, runs))

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"[run_bench] wrote {args.out} ({len(report['benches'])} benches, "
          f"{len(report['gates'])} gates)")


if __name__ == "__main__":
    main()
