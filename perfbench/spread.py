#!/usr/bin/env python3
"""Runs workloads on several seeds and reports each end-to-end metric's spread.

    python3 perfbench/spread.py peak sharded-durable --seeds 1-10

For each workload and metric it prints the median and the quartile spread
(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them, next to
the metric's bound from BENCHMARK.json. A spread under a third of the bound
is the target; setup_s is exempt from the spread rule. Raw result lines go
to .bench_build/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    worst = 0.0
    for workload in args.workloads:
        results = []
        log = os.path.join(ROOT, ".bench_build", "spread-%s.jsonl" % workload)
        os.makedirs(os.path.dirname(log), exist_ok=True)
        with open(log, "w") as out:
            for seed in args.seeds:
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
                line = done.stdout.splitlines()[-1]
                out.write(line + "\n")
                results.append(json.loads(line))
        assert all(r["correct"] for r in results), workload
        print("%s (%d seeds)" % (workload, len(results)))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread <= metric["bound"] / 3 or metric["name"] == "setup_s"
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print("  %-14s median %10.4f %-5s spread %6.3f  bound %.2f  %s" %
                  (metric["name"], median, metric["unit"], spread,
                   metric["bound"], "ok" if ok else "WIDE"))
    print("widest spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
