#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload stream_small --seeds 1-10 [--trace 0]

Runs the command from BENCHMARK.json once per seed, from the repository
root, and prints for every figure a run prints (the JSON metrics, then
the `name = value unit` lines, raw times among them) the median and the
distance between the first and third quartiles as a share of the median
— the figure a metric's bound in BENCHMARK.json must exceed. Exits 1 if
any run failed or reported incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, ok = {}, True
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
        if not result or not result["correct"] or result["failed"]:
            ok = False
            print(f"seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}", file=sys.stderr)
            continue
        figures = {n: m["value"] for n, m in result["metrics"].items()}
        # The printed figures too (`name = value unit`), raw times among them.
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[1] == "=" and parts[0] not in figures:
                try:
                    figures[parts[0]] = float(parts[2])
                except ValueError:
                    pass
        for name, value in figures.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}"
        else:
            spread = "n/a"
        bound = bounds.get(name, "-") if args.trace == "0" else "-"
        print(f"{name:32} median {med:<14.6g} spread {spread:8} bound {bound}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
