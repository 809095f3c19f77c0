#!/usr/bin/env python3
"""Repeat report: runs one workload several times, each in a fresh process
with its own seed, and prints for every metric the median, quartiles,
min/max and the quartile spread (q3 - q1) / median, next to the bound
`BENCHMARK.json` sets for it ("printed" for the figures that are printed
but not in `BENCHMARK.json`).

    python3 perfbench/repeat.py --workload read-secure --runs 10 --first-seed 1

Run it from the root of a checkout. `--trace 1` reports the per-layer
metrics instead (they have no bound).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"] + contract["per_layer"]}

    values = {}
    units = {}
    for run in range(args.runs):
        seed = args.first_seed + run
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"run with seed {seed} failed (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"run with seed {seed} failed its output checks")
            return 1
        # Every `name value unit` line: the gated metrics of the JSON line
        # and the end-to-end figures printed beside them.
        figures = {}
        for line in lines[:-1]:
            fields = line.split()
            if line.startswith("#") or len(fields) < 3:
                continue
            figures[fields[0]] = (float(fields[1]), fields[2])
        print(f"seed {seed}: " + ", ".join(f"{n}={v:.6g}" for n, (v, _) in figures.items()),
              flush=True)
        for name, (value, unit) in figures.items():
            values.setdefault(name, []).append(value)
            units[name] = unit

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':34} {'unit':>12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>9}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        gate = "printed" if name not in bounds else ("" if bound is None else bound)
        print(f"{name:34} {units[name]:>12} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{min(vals):12.6g} {max(vals):12.6g} {spread:8.4f} {gate:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
