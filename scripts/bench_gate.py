#!/usr/bin/env python3
"""Deterministic-counter regression gate over the committed perf trajectory.

    python3 scripts/bench_gate.py [--perfbench PATH]

Runs perfbench traced (`--trace 1 --seconds 1 --seed 1`) on `repair_batch`,
`stream_small` and `serve_durable`, and fails if any gated work counter
exceeds the value recorded for that workload and seed in the newest
`BENCH_<n>.json` at the repository root (its `"traced"` object: workload
-> seed -> metric -> value). The counters count work, not time, so they
do not drift with the machine or with `--seconds`. Wall-clock figures, and the run's
`repo.rust_lines` next to the recorded one, are printed and never gate.
Exits 1 on a regression, a failed run, or a missing figure.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ["repair_batch", "stream_small", "serve_durable"]
SEED = "1"
GATED = [
    "distance.evals",
    "index.queries",
    "index.rows_visited_per_query",
    "saver.saves",
    "saver.candidates_per_save",
    "engine.dirty_rows_per_ingest",
    "engine.resaves_per_row",
    "engine.promotions",
]
REPORTED = ["index.range_us_p50", "saver.save_s", "saver.rset_build_s", "engine.detect_s"]


def newest_bench():
    files = [(int(m.group(1)), p) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    if not files:
        sys.exit("bench_gate: no BENCH_<n>.json at the repository root")
    return max(files)[1]


def traced_run(perfbench, workload):
    cmd = [perfbench, "--workload", workload, "--seed", SEED, "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    if not doc["correct"]:
        sys.exit(f"bench_gate: {workload} failed its correctness checks:\n{out}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--perfbench", default=str(ROOT / "perfbench/target/release/perfbench"))
    args = parser.parse_args()
    bench = newest_bench()
    recorded = json.loads(bench.read_text())["traced"]
    failed = False
    for workload in WORKLOADS:
        want = recorded[workload][SEED]
        got = traced_run(args.perfbench, workload)
        for name in GATED:
            if name not in got or name not in want:
                print(f"    {workload} {name}: missing (run {name in got}, {bench.name} {name in want})")
                failed = True
                continue
            verdict = "ok" if got[name] <= want[name] else "REGRESSED"
            failed |= verdict != "ok"
            print(f"    {workload} {name} = {got[name]:g} ({bench.name}: {want[name]:g}) {verdict}")
        timings = ", ".join(f"{n} {got[n]:g}" for n in REPORTED if n in got)
        print(f"    {workload} wall clock, not gated: {timings}")
    lines, then = got.get("repo.rust_lines"), want.get("repo.rust_lines")
    if lines is not None and then is not None:
        print(f"    repo.rust_lines = {lines:g} ({bench.name}: {then:g}, {lines - then:+g}), not gated")
    if failed:
        sys.exit(f"bench_gate: a work counter exceeds {bench.name}")


if __name__ == "__main__":
    main()
