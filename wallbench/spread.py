#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 wallbench/spread.py --workload rag_unique --seeds 1-10 [--seconds 10] [--trace 0]

Runs the command from BENCHMARK.json once per seed from the repository
root and prints, per metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the interquartile range
as a share of the median next to a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: output check failed: {run.stdout}")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in values), flush=True)
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound/3':>8}")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        share = (q3 - q1) / med if med else 0.0
        third = f"{m['bound'] / 3:8.4f}" if "bound" in m else ""
        print(f"{m['name']:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {third}")


if __name__ == "__main__":
    main()
