#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

One run, from the root of a checkout:
    python3 e2e_bench/run.py --workload hot_views --seed 1 --seconds 15 --trace 0

Steadiness mode: one unrecorded warm-up run, then every workload (or only
--workload) N times with seeds S, S+1, ..., alternating the order of the
workloads from one pass to the next, then the median and quartiles of each
metric per workload:
    python3 e2e_bench/run.py --steady 10 [--workload W] [--seed S] [--seconds 15] [--trace 0]

The benchmark is built from the checkout's sources into .bench_build/
(configured and incrementally built on every call). Build output goes
to stderr; the last line of stdout is the run's JSON result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170
BENCHMARK_WORKLOADS = ["hot_views", "cold_tiles", "paper_batch_nowait"]
BUILD_TIMEOUT_S = 840


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "e2e_bench"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("e2e_bench: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, echo):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def steady(args):
    workloads = [args.workload] if args.workload else BENCHMARK_WORKLOADS
    series = {w: [] for w in workloads}
    # Warm-up, not recorded: the first run of a series is often slow.
    run_once(workloads[0], args.seed, args.seconds, args.trace, echo=False)
    for i in range(args.steady):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            code, result = run_once(w, args.seed + i, args.seconds, args.trace,
                                    echo=False)
            if code != 0 or result is None or not result["correct"]:
                sys.exit(f"e2e_bench: {w} seed {args.seed + i} failed")
            series[w].append(result)
            print(f"pass {i} {w}: " + json.dumps(result), flush=True)
    for w in workloads:
        runs = series[w]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, attempted {attempted}, failed {failed}")
        print(f"  {'metric':32s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'iqr/med':>8s}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            share = (q3 - q1) / med if med else 0.0
            print(f"  {name:32s} {q1:12.5g} {med:12.5g} {q3:12.5g} {share:8.3f}"
                  f"  {first['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N")
    args = p.parse_args()
    if not args.workload and args.steady <= 0:
        p.error("give --workload NAME or --steady N")
    build()
    if args.steady > 0:
        steady(args)
        return 0
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
