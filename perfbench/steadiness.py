#!/usr/bin/env python3
"""Runs two sets of seeded runs per workload and reports how steady each metric is.

    python3 perfbench/steadiness.py [--runs 10] [--workloads road_cold,...]

Set 1 runs every workload with seeds 1..runs, then set 2 runs them again
with seeds runs+1..2*runs; every run is untraced and lasts BENCHMARK.json's
run_seconds. For each workload and end-to-end metric it prints, per set,
the median, the quartiles (as statistics.quantiles(values, n=4) gives
them) and the spread (q3 - q1) / median, then the change of the second
median against the first in the metric's worse direction, and both as a
share of the metric's bound. It also prints each set's share of failed
operations and whether every run was correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(spec, workloads, seeds):
    """{workload: (values by metric, attempted, failed, correct)}"""
    results = {}
    for workload in workloads:
        values, attempted, failed, correct = {}, 0, 0, True
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if out.returncode:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        results[workload] = (values, attempted, failed, correct)
    return results


def quartiles(values):
    if len(values) == 1:
        return (values[0],) * 3
    return statistics.quantiles(values, n=4)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets = [run_set(spec, workloads, range(1 + k * args.runs,
                                           1 + (k + 1) * args.runs))
            for k in range(2)]
    for workload in workloads:
        print(f"{workload}: runs={args.runs} per set")
        for k, results in enumerate(sets):
            _, attempted, failed, correct = results[workload]
            print(f"  set {k + 1}: correct={correct} failed={failed}/{attempted}")
        print(f"  {'metric':12s} {'median1':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread1':>8s} {'median2':>10s} {'spread2':>8s} "
              f"{'change':>7s} {'bound':>6s} {'worst/bound':>11s}")
        for name, metric in metrics.items():
            first = sets[0][workload][0].get(name)
            second = sets[1][workload][0].get(name)
            if not first or not second:
                continue
            q1, med1, q3 = quartiles(first)
            s1 = (q3 - q1) / med1
            p1, med2, p3 = quartiles(second)
            s2 = (p3 - p1) / med2
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (med2 - med1) / med1
            worst = max(change, s1, s2) if name != "setup_s" else change
            print(f"  {name:12s} {med1:10.5g} {q1:10.5g} {q3:10.5g} "
                  f"{s1:8.3f} {med2:10.5g} {s2:8.3f} {change:7.3f} "
                  f"{metric['bound']:6.2f} {worst / metric['bound']:11.2f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
