#!/usr/bin/env python3
"""perfbench -- the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--negative-control] [--trace-out FILE]

Builds the dbll libraries and the benchmark binary from source into .bench_build/
(or $CARGO_TARGET_DIR), runs one workload for S seconds on inputs drawn
from the seed, checks every output against the generic kernels, and prints
a table of every metric followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics (the traced run also writes a chrome trace
and validates it with scripts/validate_trace.py). perfbench/metrics.json
says which layer each metric measures and which end-to-end metric it should
move, on which workload.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile_storm", "kernel_steady", "warm_serving", "tiered_jobs")

# Environment variables that reconfigure the program under test; they are
# removed before the benchmark binary starts (the tracer reads DBLL_TRACE while the
# process loads) and reported with the result.
ISOLATED_PREFIXES = ("DBLL_TRACE", "DBLL_CACHE_", "DBLL_TIER", "DBLL_CONTAIN", "DBLL_FAULT")
ISOLATED_NAMES = ("DBLL_JIT_ISA", "DBLL_JIT_FEATURES")

# Spans every traced run records (scripts/validate_trace.py --require).
TRACE_SPANS = (
    "request",
    "x86.cfg",
    "x86.decode",
    "analysis.audit",
    "analysis.ranges",
    "lift.lift",
    "lift.opt",
    "lift.jit",
    "lift.object",
    "lift.tier0a",
    "dbrew.rewrite",
    "runtime.store",
    "runtime.install",
    "runtime.request",
    "runtime.target",
    "runtime.target_tiered",
    "stencil.sweep",
    "spmv.product",
    "call.first",
)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    tree = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", tree, "--target", "perfbench", "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as out:
        for step in steps:
            try:
                done = subprocess.run(step, cwd=root, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                log(f"build step {' '.join(step)} failed: {error}")
                return None
            if done.returncode != 0:
                log(f"build failed (exit {done.returncode}); see {log_path}")
                return None
    binary = os.path.join(tree, "perfbench")
    return binary if os.path.exists(binary) else None


def isolated_env():
    env = dict(os.environ)
    cleared = sorted(name for name in env
                     if name.startswith(ISOLATED_PREFIXES) or name in ISOLATED_NAMES)
    for name in cleared:
        del env[name]
    return env, cleared


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt a factor of some stencil references: "
                             "the checker must report failures")
    parser.add_argument("--trace-out", help="chrome-trace output (trace runs)")
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as error:
        log(f"cannot read BENCHMARK.json: {error}")
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # metrics.json documents every metric of BENCHMARK.json; keep them in step.
    with open(os.path.join(BENCH_DIR, "metrics.json"), encoding="utf-8") as fh:
        documented = json.load(fh)
    for kind in ("end_to_end", "per_layer"):
        names = [entry["name"] for entry in spec[kind]]
        if names != [entry["name"] for entry in documented[kind]]:
            log(f"perfbench/metrics.json and BENCHMARK.json disagree on {kind}")
            return 1

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)
    if binary is None:
        return 1

    trace_out = args.trace_out or os.path.join(
        build_dir, f"perfbench-trace-{args.workload}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "perfbench-work"),
               "--trace-out", trace_out]
    if args.negative_control:
        command.append("--negative-control")
    env, cleared = isolated_env()
    try:
        done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"benchmark binary failed: {error}")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"benchmark binary exited with {done.returncode}")
        return 1
    try:
        raw = json.loads(lines[-1])
    except ValueError as error:
        log(f"benchmark binary printed no result: {error}")
        return 1

    correct = raw["failed"] == 0
    if args.trace:
        validator = os.path.join(root, "scripts", "validate_trace.py")
        check = [sys.executable, validator, trace_out]
        for name in TRACE_SPANS:
            check += ["--require", name]
        valid = subprocess.run(check, cwd=root, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, check=False)
        print(valid.stdout.strip())
        correct = correct and valid.returncode == 0

    metrics = {}
    for entry in wanted:
        got = raw["metrics"].get(entry["name"])
        if got is None or got["value"] is None:
            log(f"metric {entry['name']} missing from the benchmark binary output")
            return 1
        metrics[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}

    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"])
    env_record = dict(raw["env"])
    env_record["cleared_env"] = sorted(set(env_record["cleared_env"]) | set(cleared))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"inputs   hash {raw['input_hash']}")
    print(f"env      {json.dumps(env_record, sort_keys=True)}")
    for note in raw["notes"]:
        print(f"note     {note}")
    for name, value in sorted(raw["metrics"].items()) if args.trace else (
            (entry["name"], raw["metrics"][entry["name"]]) for entry in wanted):
        print(f"  {name:<48} {value['value']:>16.6g} {value['unit']}")
    print(f"  {'failed_frac':<48} {failed / attempted:>16.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
