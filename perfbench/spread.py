#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed for every selected workload and prints,
per metric, the median and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--first-seed 101]
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
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst_ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=False)
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed", flush=True)
                worst_ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, v in values.items():
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            flag = "" if spread <= bounds[name] / 3 else (
                "  above a third of bound" if spread <= bounds[name] else "  ABOVE BOUND")
            if spread > bounds[name] and name != "setup_s":
                worst_ok = False
            print(f"  {w:18s} {name:12s} median {statistics.median(v):10.4g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}{flag}", flush=True)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
