#!/usr/bin/env python3
"""Host-time benchmark of the amulet simulator and toolchain.

Builds the library and the hostbench harness from source (Release, into
.bench_build/ at the repository root) and runs one workload:

  python3 hostbench/run.py --workload fleet_steady --seed 1 --seconds 20 --trace 0

The last line of standard output is the harness's JSON result. Other modes:

  --all            every workload, one process each, with a metric table
  --repeat K       every (or the given) workload with seeds 1..K; prints
                   each metric's median, quartiles and spread
  --write-benchmark-json
                   write the BENCHMARK.json document the harness defines
                   (`hostbench --describe`) at the repository root

Exits non-zero without a result when the build fails (for instance when the
library sources are missing), and non-zero with a result when an output
check failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hostbench")
OUT_DIR = os.path.join(BUILD, "out")
# A run must end within 180 s; the harness itself measures --seconds plus a
# few iterations of set-up and checks.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the harness target; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    command = ["cmake", "--build", BUILD, "--target", "hostbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_harness(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--out-dir", OUT_DIR]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"hostbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return done.returncode, done.stdout


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def describe():
    return subprocess.run([BINARY, "--describe"], stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check computes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def repeat(workloads, runs, seconds, trace):
    spec = json.loads(describe())
    metrics = spec["per_layer" if trace else "end_to_end"]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(1, runs + 1):
            code, text = run_harness(workload, seed, seconds, trace)
            result = last_json(text)
            if code != 0 or result is None or not result["correct"]:
                log(f"hostbench: {workload} seed {seed} failed (exit {code})")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {runs} runs, {seconds} s each")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            if len(values[m["name"]]) < 2:
                continue
            median, q1, q3, rel = spread(values[m["name"]])
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and rel > bound / 3:
                flag = "  <- above bound/3"
            print(f"  {m['name']:34} {median:14.6g} {q1:14.6g} {q3:14.6g} {rel:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        sys.stdout.flush()
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--repeat", type=int, metavar="K")
    mode.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()

    if not build():
        log("hostbench: build failed")
        return 1
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(describe())
        return 0

    spec = json.loads(describe())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is not None and args.workload not in names:
        log(f"hostbench: unknown workload {args.workload!r}; one of {', '.join(names)}")
        return 2
    if args.repeat is not None:
        selected = [args.workload] if args.workload else names
        return 0 if repeat(selected, args.repeat, seconds, args.trace) else 1
    if args.all:
        worst = 0
        for workload in names:
            code, text = run_harness(workload, args.seed, seconds, args.trace)
            sys.stdout.write("\n".join(text.strip().splitlines()[:-1]) + "\n")
            worst = max(worst, code)
        return worst
    if args.workload is None:
        parser.error("--workload is required (or --all / --repeat)")
    code, text = run_harness(args.workload, args.seed, seconds, args.trace)
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
