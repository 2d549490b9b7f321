#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command of BENCHMARK.json on each workload with N different seeds
and prints, per metric, the median and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, beside
the metric's bound. A spread above a third of its bound is flagged.

    python3 benchmark/spread.py [--runs 10] [--first-seed 101] [--workload NAME]... [--values]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--values", action="store_true", help="also print every run's value")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {args.first_seed + i} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {args.first_seed + i}: {result}")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            share = spread / m["bound"]
            worst = max(worst, share)
            flag = "" if share < 1 / 3 else ("  > bound/3" if share < 1 else "  > BOUND")
            print(f"{workload:<12} {m['name']:<12} median {median:>12.4f} {m['unit']:<4} "
                  f"spread {spread:7.4f}  bound {m['bound']:.2f}{flag}", flush=True)
            if args.values:
                print("    " + " ".join(f"{x:.4g}" for x in v), flush=True)
    print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
