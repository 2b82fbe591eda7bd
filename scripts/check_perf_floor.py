#!/usr/bin/env python3
"""Loose wall-clock floor: fail when a benchmark run is far slower than a
reference run on any of a few guarded paths.

Usage, from the repository root:
    cargo run --release --manifest-path perfbench/Cargo.toml -- --trace 1 --out DIR
    python3 scripts/check_perf_floor.py DIR/benchmark.json

The reference is perfbench/baseline/run-1.json, a traced run recorded on a
shared 2-vCPU virtual machine. The two runs may come from different
machines, so every limit is loose: a row fails only when its path is
several times slower than the reference, never on drift. Tight
comparisons on one machine are `perfbench --compare`, under the bounds in
BENCHMARK.json.

Each row names a workload, a metric of the run (an end-to-end metric or,
from `--trace 1`, a per-layer one) and the largest slowdown allowed against
the reference. Slowdown is reference/run for a metric where higher is
better and run/reference otherwise. Exit status 0 when every row holds, 1
when one fails, 2 on unreadable input.
"""

import json
import sys

REFERENCE = "perfbench/baseline/run-1.json"

# (workload, metric, higher is better, largest slowdown allowed, path guarded)
FLOORS = [
    # The event loop: a revert of the calendar-queue and zero-allocation
    # work cost ~2.4x on this workload.
    ("neighborhood_batch", "routines_per_s", True, 1.8, "batch event loop"),
    ("service_day", "routines_per_s", True, 2.5, "service runner, long history"),
    ("service_evict", "routines_per_s", True, 2.5, "service runner, eviction and replay"),
    ("workshop_intra", "routines_per_s", True, 2.5, "intra-home sub-slices and merge"),
    ("service_evict", "journal.append_overhead", False, 2.0, "journal append"),
    ("service_evict", "journal.replay_ns_per_record", False, 2.5, "journal replay"),
    ("workshop_intra", "lint.plan_ms", False, 4.0, "lint cluster planning"),
    ("neighborhood_batch", "timeline.place_us.paper", False, 2.5, "Fig. 15d placement"),
]


def fail(message):
    print(f"check_perf_floor: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def value(doc, workload, metric):
    w = doc.get("workloads", {}).get(workload, {})
    for section in ("metrics", "layers"):
        m = w.get(section, {}).get(metric)
        if m is not None:
            return m["value"]
    return None


def main(argv):
    if len(argv) != 2:
        fail(__doc__)
    run, ref = load(argv[1]), load(REFERENCE)
    for key in ("seed", "workers"):
        if run.get(key) != ref.get(key):
            fail(f"runs differ in {key}: {run.get(key)} vs {ref.get(key)}")
    ok = True
    print("workload metric reference run slowdown limit verdict")
    for workload, metric, higher, limit, path in FLOORS:
        r, b = value(ref, workload, metric), value(run, workload, metric)
        if r is None or b is None or r <= 0 or b <= 0:
            verdict, slowdown = "missing (run with --trace 1 on every workload)", float("nan")
        else:
            slowdown = r / b if higher else b / r
            verdict = "ok" if slowdown <= limit else f"FAIL: {path} is {slowdown:.2f}x slower"
        ok &= verdict == "ok"
        print(f"{workload} {metric} {r} {b} {slowdown:.2f} {limit} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
