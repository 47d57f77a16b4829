#!/usr/bin/env python3
"""Builds and runs the end-to-end advisor benchmark (see README.md).

    python3 perfbench/run.py --workload advise-cold --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark binary is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) and then run; its last
stdout line, one JSON object, is the result. The exit code is the binary's:
non-zero when an output check failed or the build is impossible.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Processes an untraced run splits --seconds over (see main). serve-mix
# runs in one: its median is pinned by the CP budget, and each process pays
# a fixed cache warm-up and reference measurement.
SUBRUNS = {"advise-cold": 1, "solve-exact": 3, "serve-mix": 1}
# Wall budget of one invocation after the build.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no ClouDiA source tree at {ROOT}; nothing to build")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def end_to_end(raws, workload):
    """Pools the sub-runs' raw samples into the end-to-end metrics."""
    latencies = sorted(x for r in raws for x in r["latencies_s"])
    costs = [x for r in raws for x in r["costs_ms"]]
    setups = [r["setup_s"] for r in raws]
    wall = sum(r["wall_s"] for r in raws)
    n = len(latencies)
    # Highest order statistic with at least 10 samples beyond it.
    tail = latencies[n - 11] if n > 10 else (latencies[-1] if n else 0.0)
    percentile = 100.0 * (n - 10) / n if n > 10 else 100.0
    print(f"{workload}: {n} requests over {len(raws)} sub-runs, {wall:.3f} s; "
          f"req_tail_s is p{percentile:.1f} ({n} samples)")
    return {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "req_p50_s": (statistics.median(latencies) if n else 0.0, "s"),
        "req_tail_s": (tail, "s"),
        "throughput_rps": (n / wall if wall > 0 else 0.0, "1/s"),
        "cost_ms_mean": (statistics.fmean(costs) if costs else 0.0, "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in raws), "MB"),
    }


def run(cmd, deadline):
    """Runs one benchmark process, forwarding its report; returns its code."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=["advise-cold", "solve-exact", "serve-mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    base = [binary, "--workload", args.workload]

    if args.trace == "1":
        # One traced process: its exact counts are a function of the seed.
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        trace = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
        code, out = run(base + ["--seed", str(args.seed), "--seconds",
                                str(args.seconds), "--trace", "1",
                                "--trace-out", trace], deadline)
        lines = out.strip().splitlines()
        if code == 0 and (not lines or not lines[-1].startswith("{")):
            fail("benchmark printed no result line")
        sys.exit(code)

    # Untraced: the workload's SUBRUNS processes share the measured time,
    # each with its own seed derived from --seed and its own set-up (setup_s
    # is the median of their set-ups); the samples are pooled.
    raws, correct, attempted, failed, worst = [], True, 0, 0, 0
    subruns = SUBRUNS[args.workload]
    for k in range(subruns):
        raw_path = os.path.join(build_dir, f"raw-{args.workload}-{k}.json")
        if os.path.exists(raw_path):
            os.remove(raw_path)
        code, _ = run(base + ["--seed", str(args.seed * subruns + k),
                              "--seconds", str(args.seconds / subruns),
                              "--trace", "0", "--raw-out", raw_path],
                       deadline)
        worst = worst or code
        if not os.path.exists(raw_path):
            fail(f"sub-run {k} wrote no samples (exit {code})")
        with open(raw_path) as f:
            raw = json.load(f)
        raws.append(raw)
        correct = correct and raw["correct"]
        attempted += raw["attempted"]
        failed += raw["failed"]
    metrics = end_to_end(raws, args.workload)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct and worst == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(worst if worst else (0 if correct else 1))


if __name__ == "__main__":
    main()
