#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--trace 0]

For every workload (default: all in BENCHMARK.json) it runs
`perfbench/run.py` once per seed, then prints, per metric, the median and
the interquartile range as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged "noisy",
above the bound "OVER". It also checks each run's result line against
BENCHMARK.json: every metric of the mode (end_to_end with --trace 0,
per_layer with --trace 1) present, in its unit, and no other; a failed
run or a mismatch makes the exit code nonzero. Run it from the root of
the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("  seed %d: exit %d" % (seed, done.returncode))
        sys.stdout.write(done.stdout[-2000:])
        return None
    return json.loads(lines[-1])


def shape_problems(result, manifest):
    """What the result line lacks or adds against the manifest's metrics
    for its mode: every name, each in its unit, and nothing else."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is %r" % result["attempted"])
    if not isinstance(result["failed"], int):
        problems.append("failed is %r" % result["failed"])
    got = result["metrics"]
    for name, unit in manifest.items():
        if name not in got:
            problems.append("missing %s" % name)
        elif got[name].get("unit") != unit or not isinstance(
                got[name].get("value"), (int, float)):
            problems.append("malformed %s: %r" % (name, got[name]))
    for name in got:
        if name not in manifest:
            problems.append("unlisted %s" % name)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    manifest = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    bad_shape = 0
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds,
                              args.trace)
            if result is None:
                bad_shape += 1
                continue
            problems = shape_problems(result, manifest)
            if problems:
                bad_shape += 1
                print("  seed %d: result line does not match BENCHMARK.json: %s"
                      % (args.first_seed + i, "; ".join(problems)))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s (%d runs)" % (workload, args.runs))
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) < 4 or median == 0:
                print("  %-34s median=%-12.6g (spread n/a)" % (name, median))
                continue
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(median)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = ("OVER" if spread > bound
                        else "noisy" if spread > bound / 3 else "ok")
            print("  %-34s median=%-12.6g spread=%.3f bound=%s %s" %
                  (name, median, spread, bound, flag))
            print("      " + " ".join("%.6g" % v for v in sorted(vals)))
        sys.stdout.flush()
    print("worst spread/bound: %.2f" % worst)
    if bad_shape:
        print("%d run(s) failed or printed a result line that does not match "
              "BENCHMARK.json" % bad_shape)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
