#!/usr/bin/env python3
"""Bench-anchor regression check: regenerated JSONs vs the committed anchors.

For every committed BENCH_*.json anchor, the freshly regenerated candidate
(same filename, --candidates dir) must

  * exist and parse as JSON;
  * carry the same "schema" string (schema bumps are deliberate edits to
    both the bench and the anchor, never a silent drift);
  * preserve the anchor's key structure — every key the anchor has exists
    in the candidate with the same JSON type, recursively, and entry lists
    have the same length (so a bench that stops emitting a field, or emits
    it under a new spelling, fails even though all values moved);
  * reproduce every "fingerprint" field bit-for-bit and every gate flag —
    fingerprints hash deterministic decision output, so a mismatch is a
    behavior change, not noise;
  * reproduce every deterministic work counter (EXACT_KEYS) exactly — the
    EdgeCache footprint counters and the builds' nodes_expanded /
    mcost_evaluations are pure functions of the event stream, equal for
    any lane count, so drift means the incremental build started doing
    different work (e.g. a replay-shortfall restart firing, or the
    best-first search settling nodes in another order). The EdgeCache's
    resident state at run end (memo_entries, footprint_visits) is
    deterministic for a given lane count and is gated the same way, so
    unbounded cache growth fails too. The hub-label warm-up rows'
    label_entries and index_bytes are pure functions of the network and
    the slots, so a change to the labeling or to its storage format fails.

Timings, throughputs, and machine blocks are *informational*: wall clocks
differ across builders by design, so the check prints the relative drift
of numeric leaves ending in a timing suffix but never fails on them.

BENCH_baseline.json is Google Benchmark's own reporter format (no schema
field); for it the check degrades to "same benchmark-name set".

Usage: python3 tools/check_bench_regression.py \
           [--anchors DIR] [--candidates DIR] [NAME...]
Exit status: 0 when every anchor is matched, 1 otherwise.
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Numeric leaves with these suffixes are machine-dependent measurements:
# reported, never gated.
TIMING_SUFFIXES = (
    "_s", "_seconds", "_ms", "_us", "_pct", "_per_second", "wall_s",
    "real_time", "cpu_time", "items_per_second", "bytes_per_second",
)
# Structural keys that are machine- or build-dependent: type-checked only.
INFORMATIONAL_KEYS = {"machine", "hardware_threads", "context", "date"}
# Scalar leaves that must equal the anchor exactly, like fingerprints.
EXACT_KEYS = {"schema", "bench", "fingerprint", "footprint_replays",
              "footprint_rebuilds", "nodes_expanded", "mcost_evaluations",
              "memo_entries", "footprint_visits", "label_entries",
              "index_bytes"}


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def is_timing_key(key):
    return any(key.endswith(suffix) for suffix in TIMING_SUFFIXES)


class Comparator:
    def __init__(self, name):
        self.name = name
        self.errors = []
        self.notes = []

    def error(self, path, message):
        self.errors.append(f"{self.name}: {path}: {message}")

    def note(self, path, message):
        self.notes.append(f"{self.name}: {path}: {message}")

    def compare(self, anchor, candidate, path="$"):
        if json_type(anchor) != json_type(candidate):
            self.error(path, f"type changed {json_type(anchor)} -> "
                             f"{json_type(candidate)}")
            return
        if isinstance(anchor, dict):
            for key, a_value in anchor.items():
                if key not in candidate:
                    self.error(path, f"missing key '{key}'")
                    continue
                child = f"{path}.{key}"
                if key in INFORMATIONAL_KEYS:
                    if json_type(a_value) != json_type(candidate[key]):
                        self.error(child, "informational key changed type")
                    continue
                self.compare(a_value, candidate[key], child)
        elif isinstance(anchor, list):
            if len(anchor) != len(candidate):
                self.error(path, f"entry count changed {len(anchor)} -> "
                                 f"{len(candidate)}")
                return
            for i, (a_value, c_value) in enumerate(zip(anchor, candidate)):
                self.compare(a_value, c_value, f"{path}[{i}]")
        else:
            key = path.rsplit(".", 1)[-1].split("[", 1)[0]
            if key in EXACT_KEYS:
                if anchor != candidate:
                    self.error(path, f"must match anchor: {anchor!r} -> "
                                     f"{candidate!r}")
            elif isinstance(anchor, bool):
                # Gate flags and feature booleans are part of the contract.
                if anchor != candidate:
                    self.error(path, f"flag flipped {anchor} -> {candidate}")
            elif isinstance(anchor, (int, float)) and is_timing_key(key):
                if anchor and abs(candidate - anchor) / abs(anchor) > 0.25:
                    self.note(path, f"timing drift {anchor:g} -> "
                                    f"{candidate:g} (informational)")
            # Other scalar drift (counts, XDT, labels) is allowed — the
            # benches hard-gate their own determinism contracts.


def compare_google_benchmark(comp, anchor, candidate):
    a_names = [b.get("name") for b in anchor.get("benchmarks", [])]
    c_names = [b.get("name") for b in candidate.get("benchmarks", [])]
    missing = [n for n in a_names if n not in c_names]
    if missing:
        comp.error("$.benchmarks", f"benchmarks disappeared: {missing}")
    if "benchmarks" not in candidate or "context" not in candidate:
        comp.error("$", "not a Google Benchmark report")


def main():
    parser = argparse.ArgumentParser(
        description="Compare regenerated bench JSONs against anchors")
    parser.add_argument("--anchors", default=REPO_ROOT,
                        help="directory holding committed BENCH_*.json")
    parser.add_argument("--candidates", default=os.path.join(REPO_ROOT,
                                                             "build"),
                        help="directory holding regenerated BENCH_*.json")
    parser.add_argument("names", nargs="*",
                        help="anchor filenames (default: all BENCH_*.json "
                             "in --anchors)")
    args = parser.parse_args()

    names = args.names or sorted(
        n for n in os.listdir(args.anchors)
        if n.startswith("BENCH_") and n.endswith(".json"))
    if not names:
        print(f"error: no BENCH_*.json anchors in {args.anchors}",
              file=sys.stderr)
        return 1

    failed = False
    for name in names:
        anchor_path = os.path.join(args.anchors, name)
        candidate_path = os.path.join(args.candidates, name)
        comp = Comparator(name)
        try:
            with open(anchor_path) as f:
                anchor = json.load(f)
        except (OSError, ValueError) as e:
            print(f"FAIL {name}: cannot read anchor: {e}")
            failed = True
            continue
        try:
            with open(candidate_path) as f:
                candidate = json.load(f)
        except (OSError, ValueError) as e:
            print(f"FAIL {name}: cannot read candidate "
                  f"{candidate_path}: {e}")
            failed = True
            continue

        if "schema" in anchor:
            comp.compare(anchor, candidate)
        else:
            compare_google_benchmark(comp, anchor, candidate)

        for note in comp.notes:
            print(f"  note {note}")
        if comp.errors:
            failed = True
            print(f"FAIL {name}")
            for err in comp.errors:
                print(f"       {err}")
        else:
            print(f"  ok {name}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
