#!/usr/bin/env python3
"""Run the TopoMirage bench suite and aggregate a single BENCH.json.

Each trial-looping bench binary under build/bench accepts the shared
harness flags (bench/bench_harness.hpp):

    --trials N    trials (meaning is bench-specific: per cell / per row)
    --jobs N      worker threads (0/default = hardware concurrency)
    --quick       smaller CI-friendly trial counts
    --json PATH   write a one-object JSON result

This driver runs the suite, collects the per-bench JSON objects, and
writes them to one combined file:

    {"benches": [{"bench": ..., "trials": ..., "jobs": ..., "wall_ms": ...,
                  "events": ..., "events_per_sec": ...}, ...],
     "speedup": {...}}          # only with --speedup

Every run also archives an identical timestamped copy next to --out
(BENCH_<utcstamp>.json) so successive runs accumulate a comparable
local history; the archives are never overwritten.

--history merges those archives (plus the current run) into a
"trajectory" block in the combined file — per-bench wall_ms and
events_per_sec over time, keyed by the archive stamp — and warns on
any bench whose wall clock regressed more than 10% against the
previous comparable archive (same trials and jobs). Warnings are
advisory: wall clock is host time, so the exit status never changes.

--speedup runs the 200-trial attack-matrix workload
(bench_attack_matrix --trials 10) across a jobs sweep (1, 2, 4, 8) and
records the whole scaling curve plus the host's CPU count. The tables
printed at every sweep point must match the --jobs 1 run byte-for-byte
— the driver diffs them and fails if parallelism changed any simulated
result. One extra --legacy-runner run at --jobs 1 attributes how much
of the serial wall clock the chunked scheduler + arenas bought on
their own.

--montecarlo-check runs bench_montecarlo --quick at --jobs 1 and
--jobs 8 and fails unless the deterministic part of the JSON result
(trial/event counts and every quantile table) and the stdout tables
are identical — the streaming-quantile merge must be byte-stable
across worker counts.

--fleet-check does the same for bench_fleet --quick: the fleet cells
(generated fabrics under background load) must produce identical
stdout tables and deterministic-JSON payloads at --jobs 1 and 8.

Usage:
    python3 tools/run_bench.py [--quick] [--jobs N] [--build-dir build]
                               [--out BENCH.json] [--speedup]
                               [--montecarlo-check] [--fleet-check]
                               [--history]

The directory of --out must exist: it is checked before the first bench
runs, and a missing one exits 2 naming the path.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timezone

# --history flags a bench whose wall clock grew past this factor of the
# previous comparable archive's.
REGRESSION_FACTOR = 1.10

# Benches that implement the harness flags. Order is the report order.
BENCHES = [
    "bench_event_loop",
    "bench_routing",
    "bench_flow_table",
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

# The jobs sweep recorded by --speedup. Points above the host's core
# count still run (oversubscribed) so the curve shape is comparable
# across machines.
SWEEP_JOBS = [1, 2, 4, 8]


def run_bench(binary, extra_args, quiet=True):
    """Run one bench with --json into a temp file; return (result, stdout)."""
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json",
                                     delete=False) as tmp:
        json_path = tmp.name
    try:
        cmd = [binary, "--json", json_path] + extra_args
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(f"{os.path.basename(binary)} exited "
                               f"{proc.returncode}")
        with open(json_path) as f:
            result = json.load(f)
        if not quiet:
            sys.stdout.write(proc.stdout)
        return result, proc.stdout
    finally:
        os.unlink(json_path)


def strip_bench_lines(text):
    """Drop the timing footer so outputs can be compared across --jobs."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("[bench]"))


def deterministic_part(result):
    # Everything except the host-timing keys (and "jobs", which names
    # the worker count and differs by construction).
    return {k: v for k, v in result.items()
            if k not in ("jobs", "wall_ms", "events_per_sec")}


def check_jobs_stable(bench_dir, name, workload, what):
    """Run `name` at --jobs 1 and 8; fail unless stdout tables and the
    deterministic JSON payload are byte-identical. Returns the jobs-1
    result for the report."""
    binary = os.path.join(bench_dir, name)
    one, one_out = run_bench(binary, workload + ["--jobs", "1"])
    eight, eight_out = run_bench(binary, workload + ["--jobs", "8"])
    if strip_bench_lines(one_out) != strip_bench_lines(eight_out):
        sys.exit(f"error: {name} stdout differs between --jobs 1 and "
                 f"--jobs 8 — {what} is not worker-count stable")
    if deterministic_part(one) != deterministic_part(eight):
        sys.exit(f"error: {name} JSON differs between --jobs 1 and "
                 f"--jobs 8 — {what} is not worker-count stable")
    return one


def archive_report(out_path, report):
    """Keep a timestamped copy next to the combined file so successive
    runs build a local history (BENCH_<utc>.json, never overwritten)."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    base, ext = os.path.splitext(out_path)
    archive = f"{base}_{stamp}{ext or '.json'}"
    n = 1
    while os.path.exists(archive):  # same-second rerun
        archive = f"{base}_{stamp}-{n}{ext or '.json'}"
        n += 1
    with open(archive, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return archive


def collect_history(out_path):
    """Parse every BENCH_<stamp>.json archive next to `out_path` into
    trajectory points (stamp-sorted; the filename stamp is UTC, so
    lexical order is chronological). Unreadable archives are skipped
    with a note, never fatal."""
    base, ext = os.path.splitext(out_path)
    points = []
    for path in sorted(glob.glob(f"{base}_*{ext or '.json'}")):
        stamp = os.path.basename(path)[len(os.path.basename(base)) + 1:]
        stamp = stamp[:-len(ext or ".json")]
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"[run_bench] history: skipping {path}: {e}")
            continue
        benches = {}
        for b in data.get("benches", []):
            if not isinstance(b, dict) or "bench" not in b:
                continue
            benches[b["bench"]] = {
                "trials": b.get("trials"),
                "jobs": b.get("jobs"),
                "wall_ms": b.get("wall_ms"),
                "events_per_sec": b.get("events_per_sec"),
            }
        points.append({"stamp": stamp, "archive": os.path.basename(path),
                       "benches": benches})
    return points


def history_regressions(points):
    """Compare each bench's latest point against the most recent earlier
    archive with the same {trials, jobs} shape; return warning lines for
    >10% wall-clock growth."""
    if len(points) < 2:
        return []
    latest = points[-1]
    warnings = []
    for name, cur in sorted(latest["benches"].items()):
        if not cur.get("wall_ms"):
            continue
        for earlier in reversed(points[:-1]):
            prev = earlier["benches"].get(name)
            if not prev or not prev.get("wall_ms"):
                continue
            if (prev["trials"], prev["jobs"]) != (cur["trials"],
                                                  cur["jobs"]):
                continue
            if cur["wall_ms"] > prev["wall_ms"] * REGRESSION_FACTOR:
                pct = 100.0 * (cur["wall_ms"] / prev["wall_ms"] - 1.0)
                warnings.append(
                    f"{name}: wall {prev['wall_ms']:.0f} ms "
                    f"({earlier['stamp']}) -> {cur['wall_ms']:.0f} ms "
                    f"(+{pct:.0f}%)")
            break
    return warnings


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory holding bench/ binaries")
    ap.add_argument("--jobs", type=int, default=0,
                    help="worker threads per bench (0 = hardware)")
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized trial counts")
    ap.add_argument("--out", default="BENCH.json",
                    help="combined output path (default BENCH.json)")
    ap.add_argument("--speedup", action="store_true",
                    help="also sweep --jobs 1/2/4/8 over the 200-trial "
                         "attack-matrix workload and record the scaling "
                         "curve")
    ap.add_argument("--montecarlo-check", action="store_true",
                    help="also run bench_montecarlo --quick at --jobs 1 "
                         "and 8 and fail unless the quantile tables are "
                         "byte-identical")
    ap.add_argument("--fleet-check", action="store_true",
                    help="also run bench_fleet --quick at --jobs 1 and 8 "
                         "and fail unless the fleet cells are "
                         "byte-identical")
    ap.add_argument("--history", action="store_true",
                    help="merge the BENCH_<utc>.json archives into a "
                         "trajectory block and warn on >10%% wall-clock "
                         "regressions against the previous comparable run")
    args = ap.parse_args()
    # Fail before the suite runs, not in archive_report after it.
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        ap.error(f"--out directory {out_dir} does not exist")

    bench_dir = os.path.join(args.build_dir, "bench")
    if not os.path.isdir(bench_dir):
        sys.exit(f"error: {bench_dir} not found — build the tree first "
                 f"(cmake -B {args.build_dir} -S . && "
                 f"cmake --build {args.build_dir} -j)")

    common = []
    if args.quick:
        common.append("--quick")
    if args.jobs:
        common += ["--jobs", str(args.jobs)]

    report = {"benches": []}
    missing = []
    for name in BENCHES:
        binary = os.path.join(bench_dir, name)
        if not os.path.exists(binary):
            missing.append(name)
            continue
        result, _ = run_bench(binary, list(common))
        print(f"[run_bench] {result['bench']}: trials={result['trials']} "
              f"jobs={result['jobs']} wall={result['wall_ms']:.1f} ms "
              f"({result['events_per_sec']:.3g} events/s)")
        report["benches"].append(result)
    if missing:
        print(f"[run_bench] skipped (not built): {', '.join(missing)}")

    if args.speedup:
        binary = os.path.join(bench_dir, "bench_attack_matrix")
        workload = ["--trials", "10"]  # 10 trials x 20 cells = 200 runs
        curve = []
        serial_wall = None
        serial_stripped = None
        for jobs in SWEEP_JOBS:
            result, out = run_bench(binary, workload + ["--jobs", str(jobs)])
            stripped = strip_bench_lines(out)
            if serial_stripped is None:
                serial_wall = result["wall_ms"]
                serial_stripped = stripped
            elif stripped != serial_stripped:
                sys.exit(f"error: attack-matrix output at --jobs {jobs} "
                         f"differs from --jobs 1 — determinism violation")
            curve.append({
                "jobs": jobs,
                "wall_ms": result["wall_ms"],
                "speedup": serial_wall / result["wall_ms"],
            })
            print(f"[run_bench] speedup: jobs={jobs} "
                  f"wall={result['wall_ms']:.0f} ms "
                  f"({curve[-1]['speedup']:.2f}x vs jobs=1, "
                  f"identical output)")
        # Legacy-scheduler baseline at jobs=1: attributes the serial-path
        # win (chunked dispatch + warm arenas) separately from threading.
        legacy, legacy_out = run_bench(
            binary, workload + ["--jobs", "1", "--legacy-runner"])
        if strip_bench_lines(legacy_out) != serial_stripped:
            sys.exit("error: attack-matrix output differs between the "
                     "chunked and legacy runners — scheduler changed a "
                     "simulated result")
        best = min(curve, key=lambda p: p["wall_ms"])
        report["speedup"] = {
            "workload": "attack_matrix --trials 10 (200 experiments)",
            "host_cpus": os.cpu_count(),
            "curve": curve,
            "legacy_runner_jobs1_wall_ms": legacy["wall_ms"],
            "serial_vs_legacy_speedup": legacy["wall_ms"] / serial_wall,
            "jobs": best["jobs"],
            "serial_wall_ms": serial_wall,
            "parallel_wall_ms": best["wall_ms"],
            "speedup": best["speedup"],
            "output_identical": True,
        }
        print(f"[run_bench] speedup: best {best['speedup']:.2f}x at "
              f"jobs={best['jobs']} on {os.cpu_count()} host CPUs; "
              f"legacy-runner serial baseline "
              f"{legacy['wall_ms']:.0f} ms "
              f"({legacy['wall_ms'] / serial_wall:.2f}x vs chunked serial)")

    if args.montecarlo_check:
        one = check_jobs_stable(bench_dir, "bench_montecarlo", ["--quick"],
                                "streaming-quantile merge")
        report["montecarlo_check"] = {
            "workload": "bench_montecarlo --quick",
            "trials": one["trials"],
            "jobs_compared": [1, 8],
            "output_identical": True,
        }
        print(f"[run_bench] montecarlo-check: {one['trials']} trials, "
              f"jobs 1 vs 8 identical (tables + JSON)")

    if args.fleet_check:
        one = check_jobs_stable(bench_dir, "bench_fleet", ["--quick"],
                                "the fleet sweep")
        report["fleet_check"] = {
            "workload": "bench_fleet --quick",
            "trials": one["trials"],
            "jobs_compared": [1, 8],
            "output_identical": True,
        }
        print(f"[run_bench] fleet-check: {one['trials']} trials, "
              f"jobs 1 vs 8 identical (tables + JSON)")

    # Archive before assembling the trajectory so the current run is the
    # history's final point (the combined file alone gets the block; the
    # archives stay pure per-run records).
    archive = archive_report(args.out, report)
    if args.history:
        points = collect_history(args.out)
        warnings = history_regressions(points)
        report["trajectory"] = {
            "points": points,
            "regression_factor": REGRESSION_FACTOR,
            "regressions": warnings,
        }
        print(f"[run_bench] history: {len(points)} archived run(s)")
        for w in warnings:
            print(f"[run_bench] warning: {w}")
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"[run_bench] wrote {args.out} ({len(report['benches'])} benches), "
          f"archived {archive}")


if __name__ == "__main__":
    main()
