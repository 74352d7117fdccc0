#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune, then runs it once per
rep, each rep in a fresh process, until S seconds have passed (never
fewer than three reps, four when tracing).  Metrics are medians over
reps.  The run is correct when every rep's checks pass, the
deterministic outputs (Loc-RIB digest, messages, bytes, state words,
simulated time) agree across reps, the digest matches the one pinned in
perfbench/digests.json for pinned seeds, and the metrics are exactly
the ones BENCHMARK.json lists for the mode (--trace 0: end_to_end,
--trace 1: per_layer).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only for a correct run.  With --trace 1, reps
alternate untraced and traced; the last traced rep writes its spans and
counter deltas to .perfbench/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 870
RUN_DEADLINE_S = 165
MAX_REPS = 64

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("peak_heap_mb", "MB"), ("state_mwords", "Mwords"),
              ("messages", "count"), ("wire_bytes", "bytes")]
DETERMINISTIC = ["digest", "routes", "state_mwords", "messages",
                 "wire_bytes", "sim_s"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(env):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout (no dune-project or lib/ here)")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "--display=quiet", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_rep(args, env, traced, verify, trace_out, timeout):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        cmd += ["--trace", "--trace-out", trace_out]
    if verify:
        cmd.append("--verify")
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("a rep did not finish within the run's time limit")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("bench.exe exited with code %d" % done.returncode)
    rep = json.loads(lines[-1])
    rep["traced"] = traced
    return rep


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        pins = json.load(f)
    return pins["digests"].get(workload, {}).get(str(seed))


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    scratch = os.path.join(os.getcwd(), ".perfbench")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(scratch, "cache"))
    build(env)
    os.makedirs(scratch, exist_ok=True)
    trace_out = os.path.join(
        scratch, "trace-%s-%d.json" % (args.workload, args.seed))

    # Stop before a rep that would overrun --seconds.
    min_reps = 4 if args.trace else 3
    start = time.monotonic()
    reps, last = [], 0.0
    while True:
        n, elapsed = len(reps), time.monotonic() - start
        if n >= min_reps and (elapsed + last > args.seconds or n >= MAX_REPS):
            break
        traced = bool(args.trace) and n % 2 == 1
        # The full checks run on the first rep of each kind.
        verify = n == 0 or (traced and n == 1)
        t0 = time.monotonic()
        reps.append(run_rep(args, env, traced, verify, trace_out,
                            max(1.0, RUN_DEADLINE_S - elapsed)))
        last = time.monotonic() - t0

    failures = [f for r in reps for f in r["failures"]]
    for key in DETERMINISTIC:
        if len({json.dumps(r[key]) for r in reps}) > 1:
            failures.append("reps disagree on " + key)
    pin = pinned_digest(args.workload, args.seed)
    if pin is not None and pin != reps[0]["digest"]:
        failures.append("Loc-RIB digest %s, pinned %s"
                        % (reps[0]["digest"], pin))

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        untraced = [r for r in reps if not r["traced"]]
        metrics = {
            name: {"value": statistics.median(r["layer"][name]["value"]
                                              for r in traced),
                   "unit": m["unit"]}
            for name, m in traced[0]["layer"].items()}
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, "run_s") - median_of(untraced, "run_s"),
            "unit": "s"}
    else:
        metrics = {name: {"value": median_of(reps, name), "unit": unit}
                   for name, unit in END_TO_END}
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(metrics):
        failures.append("metrics differ from BENCHMARK.json")

    print("%s seed %d: %d reps" % (args.workload, args.seed, len(reps)),
          file=sys.stderr)
    for r in reps:
        print("  %-8s setup %.4fs  run %.4fs  cpu %.4fs"
              % ("traced" if r["traced"] else "", r["setup_s"], r["run_s"],
                 r["cpu_s"]), file=sys.stderr)
    for name, m in metrics.items():
        print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]),
              file=sys.stderr)
    for f in failures:
        print("  FAILED: " + f, file=sys.stderr)

    failed = int(sum(r["failed"] for r in reps)) + len(failures)
    print(json.dumps({"correct": failed == 0,
                      "attempted": max(1, int(sum(r["attempted"]
                                                  for r in reps))),
                      "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
