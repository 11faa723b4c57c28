#!/usr/bin/env python3
"""Spread report: run one workload on several seeds and summarize.

Usage (from the repository root):

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds 10] [--trace 0|1]

Runs `perfbench/run.py` once per seed, one after another, and prints
for every metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), IQR / median, and
each metric's bound from `BENCHMARK.json` when it has one. A run that
fails, or reports `correct: false`, is listed and left out of the
summary. The bounds in `BENCHMARK.json` were set from this report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bounds():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
        if not result or not result["correct"] or result["failed"]:
            print(f"seed {seed}: run failed or incorrect (code {run.returncode})")
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: ok", flush=True)

    limits = bounds()
    print(f"\n{args.workload}: {len(next(iter(values.values()), []))} runs, trace {args.trace}")
    print(f"{'metric':<38} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = "" if bound is None else (" ok" if rel < bound / 3 else " WIDE")
        print(f"{name:<38} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {rel:>8.4f} "
              f"{'' if bound is None else bound:>6}{flag}  {units[name]}")


if __name__ == "__main__":
    main()
