#!/usr/bin/env python3
"""Round benchmark entry point.

Builds the framework libraries and the benchmark program from source (into
$CARGO_TARGET_DIR, default .bench_build, under the repository root), runs
one workload, and relays its output. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload sync-femnist-cnn --seed 1 \
        --seconds 40 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --smoke shrinks every workload for the benchmark's own
tests. The exit code is non-zero when the build, a run or an output check
fails; no result line is printed when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then builds incrementally; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "round_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}, [w["name"] for w in spec["workloads"]]


def check_result(line, trace):
    """Returns the ways the result line breaks its documented format."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number")
    want, _ = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name}: unit {m.get('unit')} != {want[name]}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    if not trace:
        for name, m in got.items():
            if isinstance(m.get("value"), (int, float)) and m["value"] <= 0:
                problems.append(f"{name}: end-to-end value {m['value']} is not positive")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    _, names = expected_metrics(args.trace)
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
        return 2

    out = build_dir()
    if not build(out):
        return 1

    # The program receives only the generated inputs: no APPFL_* override
    # from the caller's environment may change what a workload runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("APPFL_")}
    cmd = [os.path.join(out, "round_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              check=False, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"round_bench exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 and not lines[-1].startswith("{\"correct\""):
        log(f"round_bench exited with code {proc.returncode}")
        return 1
    problems = check_result(lines[-1], args.trace)
    for p in problems:
        log(f"result check failed: {p}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if problems:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
