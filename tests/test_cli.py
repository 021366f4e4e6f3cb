#!/usr/bin/env python3
"""Contract tests for the appfl_cli front end, run against the built binary.

    python3 tests/test_cli.py build/examples/appfl_cli

Checks that every usage error exits 2 and names the offending flag, that
--help exits 0 and lists exactly the accepted flags and APPFL_* names, that
a bad APPFL_* value is warned about once, and that one small run per mode
exits 0. Every run gets an environment without APPFL_* variables except the
ones a case sets, and a fresh working directory.
"""
import os
import re
import subprocess
import sys
import tempfile

CLI = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else None
TIMEOUT_S = 20

# A run small enough to finish in well under a second in every mode.
# Cases that set --rounds themselves leave it out (a repeated flag is an
# unknown flag).
TINY = ["--model", "logistic", "--per-client", "16", "--local-steps", "1",
        "--batch-size", "16", "--quiet"]
POP = ["--population", "40", "--participants", "8"]
ASYNC = ["--async-strategy", "fedasync"]

FLAGS = """
dataset algorithm model clients writers per-client rounds local-steps
batch-size lr momentum rho zeta adaptive-rho mu epsilon clip fraction
protocol codec secure-agg secure-agg-threshold fault-drop fault-dup
fault-reorder fault-corrupt fault-delay fault-delay-max fault-dead
gather-timeout kernel-backend kernel-threads seed csv ckpt-dir ckpt-every
resume obs-level trace-out metrics-out critpath-out health-out flight-dir
report quiet population participants tree-fanout mailbox-cap async-strategy
staleness-weight buffer-k mixing-alpha total-updates validate-every fleet
""".split()

ENV_NAMES = """
APPFL_FAULT_DROP APPFL_FAULT_DUPLICATE APPFL_FAULT_REORDER APPFL_FAULT_CORRUPT
APPFL_FAULT_DELAY APPFL_FAULT_DELAY_MAX_S APPFL_FAULT_DEAD APPFL_WIRE_CODEC
APPFL_OBS_LEVEL APPFL_OBS_TRACE_OUT APPFL_OBS_METRICS_OUT
APPFL_OBS_HEALTH_OUT APPFL_OBS_CRITPATH_OUT APPFL_OBS_FLIGHT_DIR
APPFL_ASYNC_STRATEGY APPFL_ASYNC_STALENESS_WEIGHT APPFL_ASYNC_BUFFER_K
APPFL_ASYNC_HINGE_S0 APPFL_CKPT_DIR APPFL_CKPT_EVERY APPFL_CKPT_RESUME
APPFL_TREE_FANOUT APPFL_MAILBOX_CAP APPFL_KERNEL_BACKEND APPFL_KERNEL_THREADS
APPFL_LOG_LEVEL
""".split()

# (case name, extra argv, regex the stderr must match: the offending flag).
# One case per usage error the front end reports; a rule that names several
# flags gets one case per flag.
USAGE_ERRORS = [
    ("unknown dataset", ["--dataset", "bogus"], "dataset"),
    ("unknown algorithm", ["--algorithm", "bogus"], "algorithm"),
    ("unknown model", ["--model", "bogus"], "model"),
    ("unknown protocol", ["--protocol", "bogus"], "protocol"),
    ("unknown codec", ["--codec", "bogus"], "codec"),
    ("orphan secure-agg threshold", ["--secure-agg-threshold", "3"],
     "secure-agg-threshold"),
    ("secure-agg with ADMM", ["--secure-agg", "--algorithm", "iiadmm"],
     r"secure[-_ ]agg"),
    ("secure-agg with a codec",
     ["--secure-agg", "--algorithm", "fedavg", "--codec", "fp16"], "codec"),
    ("secure-agg with async", ["--secure-agg"] + ASYNC, "async-strategy"),
    ("secure-agg threshold of 1",
     ["--secure-agg", "--secure-agg-threshold", "1"], "secure-agg-threshold"),
    ("bad dead-client id", ["--fault-dead", "1,x"], "fault-dead"),
    ("unknown kernel backend", ["--kernel-backend", "bogus"], "kernel-backend"),
    ("zero checkpoint cadence", ["--ckpt-every", "0"], "ckpt-every"),
    ("unknown obs level", ["--obs-level", "bogus"], "obs-level"),
    ("trace-out below trace", ["--trace-out", "t.json"], "trace-out"),
    ("metrics-out at off", ["--metrics-out", "m.jsonl"], "metrics-out"),
    ("critpath-out below trace",
     ["--obs-level", "metrics", "--critpath-out", "c.jsonl"], "critpath-out"),
    ("health-out at off", ["--health-out", "h.csv"], "health-out"),
    ("flight-dir at off", ["--flight-dir", "fd"], "flight-dir"),
    ("negative mailbox cap", ["--mailbox-cap", "-1"], "mailbox-cap"),
    ("orphan participants", ["--participants", "5"], "participants"),
    ("orphan tree fan-out", ["--tree-fanout", "4"], "tree-fanout"),
    ("population with async", POP + ASYNC, "population"),
    ("population with dataset", POP + ["--dataset", "mnist"], "dataset"),
    ("population with clients", POP + ["--clients", "4"], "clients"),
    ("population with writers", POP + ["--writers", "4"], "writers"),
    ("population with fraction", POP + ["--fraction", "0.5"], "fraction"),
    ("population with ADMM", POP + ["--algorithm", "iiadmm"], "population"),
    ("participants above population",
     ["--population", "10", "--participants", "20"], "participants"),
    ("empty population", ["--population", "0"], "population"),
    ("tree fan-out of 1", POP + ["--tree-fanout", "1"],
     r"tree[-_ ]?fan[-_ ]?out"),
    ("population with report", POP + ["--report"], "report"),
    ("orphan staleness weight", ["--staleness-weight", "hinge"],
     "staleness-weight"),
    ("orphan buffer-k", ["--buffer-k", "2"], "buffer-k"),
    ("orphan mixing alpha", ["--mixing-alpha", "0.5"], "mixing-alpha"),
    ("orphan total updates", ["--total-updates", "4"], "total-updates"),
    ("orphan validate-every", ["--validate-every", "2"], "validate-every"),
    ("orphan fleet", ["--fleet", "a100"], "fleet"),
    ("async with ADMM", ASYNC + ["--algorithm", "iiadmm"], "algorithm"),
    ("unknown async strategy", ["--async-strategy", "bogus"],
     "async-strategy"),
    ("unknown staleness weight", ASYNC + ["--staleness-weight", "bogus"],
     "staleness-weight"),
    ("zero buffer-k", ["--async-strategy", "fedbuff", "--buffer-k", "0"],
     "buffer-k"),
    ("mixing alpha above 1", ASYNC + ["--mixing-alpha", "1.5"],
     "mixing-alpha"),
    ("negative total updates", ASYNC + ["--total-updates", "-1"],
     "total-updates"),
    ("negative validate-every", ASYNC + ["--validate-every", "-1"],
     "validate-every"),
    ("unknown fleet", ASYNC + ["--fleet", "bogus"], "fleet"),
    ("async with report", ASYNC + ["--report"], "report"),
    ("async with a codec", ASYNC + ["--codec", "fp16"], "codec"),
    ("unknown flag", ["--bogus-flag", "1"], "bogus-flag"),
]

# Valueless, negative and malformed values: usage errors, never a silent
# default, a wrapped-around count or an internal check failure.
BAD_VALUES = [
    ("valueless epsilon", ["--epsilon"], "epsilon"),
    ("valueless resume", ["--resume"], "resume"),
    ("valueless obs level", ["--obs-level"], "obs-level"),
    ("valueless rounds", ["--rounds"], "rounds"),
    ("negative rounds", ["--rounds", "-3"], "rounds"),
    ("malformed rounds", ["--rounds", "abc"], "rounds"),
    ("negative lr", ["--lr", "-1"], "lr"),
]


def run(args, env_extra=None, cwd=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("APPFL_")}
    env.update(env_extra or {})
    try:
        proc = subprocess.run([CLI] + args, env=env, cwd=cwd, timeout=TIMEOUT_S,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return None
    return proc


class Suite:
    def __init__(self):
        self.failures = []
        self.count = 0

    def check(self, name, ok, detail=""):
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def usage_error(self, name, args, pattern, cwd):
        rounds = [] if "--rounds" in args else ["--rounds", "1"]
        proc = run(TINY + rounds + args, cwd=cwd)
        if proc is None:
            self.check(name, False, f"timed out after {TIMEOUT_S} s")
            return
        ok = proc.returncode == 2 and re.search(pattern, proc.stderr)
        self.check(name, ok,
                   f"exit {proc.returncode}, stderr {proc.stderr.strip()!r}")

    def ok_run(self, name, args, expect, cwd, env=None):
        proc = run(args, env, cwd=cwd)
        if proc is None:
            self.check(name, False, f"timed out after {TIMEOUT_S} s")
            return None
        self.check(name, proc.returncode == 0 and expect in proc.stdout,
                   f"exit {proc.returncode}, stderr {proc.stderr.strip()!r}")
        return proc


def main():
    if CLI is None or not os.access(CLI, os.X_OK):
        print("usage: test_cli.py path/to/appfl_cli", file=sys.stderr)
        return 2
    s = Suite()
    with tempfile.TemporaryDirectory() as cwd:
        for name, args, pattern in USAGE_ERRORS + BAD_VALUES:
            s.usage_error(name, args, pattern, cwd)

        help_run = run(["--help"], cwd=cwd)
        s.check("--help exits 0",
                help_run is not None and help_run.returncode == 0)
        if help_run is not None:
            text = help_run.stdout
            flags = set(re.findall(r"--[a-z][a-z0-9-]*", text)) - {"--help"}
            want = {"--" + f for f in FLAGS}
            s.check("--help lists exactly the accepted flags", flags == want,
                    f"missing {sorted(want - flags)}, "
                    f"extra {sorted(flags - want)}")
            envs = set(re.findall(r"APPFL_[A-Z0-9_]+", text))
            s.check("--help lists exactly the APPFL_* names",
                    envs == set(ENV_NAMES),
                    f"missing {sorted(set(ENV_NAMES) - envs)}, "
                    f"extra {sorted(envs - set(ENV_NAMES))}")

        one = TINY + ["--rounds", "1"]
        sync = one + ["--clients", "4", "--algorithm", "fedavg"]
        s.ok_run("sync run with --report", sync + ["--report"],
                 "per-class recall", cwd)
        s.ok_run("switches take no value", one + ["--adaptive-rho"],
                 "final accuracy", cwd)
        s.ok_run("secure-agg run with faults",
                 sync + ["--secure-agg", "--fault-drop", "0.1",
                         "--fault-dead", "2"], "secure-agg:", cwd)
        s.ok_run("population tree run", one + POP + ["--tree-fanout", "4"],
                 "tree depth 2", cwd)
        s.ok_run("async FedBuff run",
                 one + ["--clients", "3", "--async-strategy", "fedbuff",
                         "--buffer-k", "2"], "strategy: fedbuff", cwd)
        ckpt = TINY + ["--clients", "2", "--rounds", "2"]
        s.ok_run("checkpointed run", ckpt + ["--ckpt-dir", "ck"],
                 "wrote 2 checkpoint(s)", cwd)
        s.ok_run("resumed run", ckpt + ["--resume", "ck"],
                 "resumed after round 2", cwd)

        proc = s.ok_run("bad APPFL_FAULT_DROP is ignored", sync,
                        "final accuracy", cwd, env={"APPFL_FAULT_DROP": "abc"})
        if proc is not None:
            warnings = [l for l in proc.stderr.splitlines() if "warning" in l]
            s.check("bad APPFL_FAULT_DROP warns exactly once",
                    len(warnings) == 1 and "APPFL_FAULT_DROP" in warnings[0],
                    f"stderr {proc.stderr.strip()!r}")

    for failure in s.failures:
        print(f"FAIL {failure}")
    print(f"test_cli: {s.count - len(s.failures)}/{s.count} checks passed")
    return 1 if s.failures else 0


if __name__ == "__main__":
    sys.exit(main())
