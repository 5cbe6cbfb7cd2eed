#!/usr/bin/env python3
"""Builds and runs the Sigmund end-to-end benchmark.

One run:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds e2ebench/ (and the libraries under src/) with CMake into
.bench_build/ (or $CARGO_TARGET_DIR when set), then runs the benchmark
binary. Its last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Steadiness mode:

    python3 e2ebench/run.py --steadiness 10 --workload <name> [--seconds <s>] [--trace <0|1>]

runs the workload once per seed 1..N and prints, for every metric, its
median, quartiles and spread (interquartile range over the median) next to
the bound that BENCHMARK.json gives it ("yes" when the spread is under a
third of the bound). This is how the bounds are set and
rechecked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        return os.path.abspath(target)
    return os.path.join(ROOT, ".bench_build")


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "e2ebench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        return None
    binary = os.path.join(out, "e2ebench")
    return binary if os.path.isfile(binary) else None


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, last stdout line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def steadiness(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    shares = set()
    for seed in range(1, args.steadiness + 1):
        code, line = run_once(binary, args.workload, seed, args.seconds,
                              args.trace)
        if code != 0:
            print("seed %d: exit code %d" % (seed, code), file=sys.stderr)
            return 1
        result = json.loads(line)
        shares.add(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]),
              file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print("%-36s %12s %12s %12s %8s %7s %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "ok"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        ok = "" if bound is None else (
            "yes" if spread < bound / 3 else "WIDE")
        print("%-36s %12.6g %12.6g %12.6g %8.4f %7s %s" %
              (name, med, q1, q3, spread,
               "-" if bound is None else "%.3f" % bound, ok))
    print("failed share per run: %s" % sorted(shares))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--steadiness", type=int, default=0,
                        help="run seeds 1..N and report each metric's spread")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    if args.steadiness > 0:
        return steadiness(binary, args)
    code, line = run_once(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    if code != 0 or not line.startswith("{"):
        print("e2ebench: run failed (exit code %d)" % code, file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
