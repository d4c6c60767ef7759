#!/usr/bin/env python3
"""Builds and runs the open-loop city-day benchmark (see README.md).

    python3 perfbench/run.py --workload peak --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which pulls in the
repository's src/) into .bench_build/perfbench; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero, without a result, when the
build fails (for example outside a full checkout) and with the program's
code when its output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ is missing beside perfbench/; "
                 "run from a full checkout of the repository")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4",
         "--target", "perfbench", "perfbench_test"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def bench(args):
    """Runs the program; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--out-dir", OUT] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


def selftest():
    """The C++ test, then the command's own output on the tiny city."""
    test = os.path.join(ROOT, ".bench_build", "perfbench-test")
    if subprocess.run([os.path.join(BUILD, "perfbench_test"), test]).returncode:
        sys.exit("perfbench_test failed")
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = bench(["--workload", "tiny", "--seed", "1",
                             "--seconds", "3", "--trace", str(trace)])
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"] is True, lines
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (group, sorted(set(got) ^ set(want)))
        if trace:
            provenance = json.loads(lines[-2].split(" ", 1)[1])
            events = json.load(open(provenance["trace"]))["traceEvents"]
            assert {e["name"] for e in events} >= {
                "window", "sim.advance", "core.events", "core.window",
                "routing.rebuild"}, events[:5]
    print("perfbench selftest: PASS")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    build()
    if args.selftest:
        selftest()
        return 0
    code, lines = bench(["--workload", args.workload, "--seed",
                         str(args.seed), "--seconds", "%g" % args.seconds,
                         "--trace", str(args.trace)])
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
