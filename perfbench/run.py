#!/usr/bin/env python3
"""Build and run the webmm serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload open|tcp --seed N --seconds S --trace 0|1

Builds the `webmm-perfbench` package (perfbench/Cargo.toml, a workspace of
its own that depends on the repository's crates by path) in release mode
into $CARGO_TARGET_DIR (default `.bench_build` in the checkout), then runs
it as PROCESSES consecutive processes that share the --seconds budget and
the seed. Each process also gets its index, which varies the open
workload's arrival draws and the allocator order. Each process prints one
JSON result; this script reports, for every metric, the median over the
processes. On a shared 2-vCPU virtual machine
(Xeon, 2.1 GHz) the host's speed drifted by up to a factor of two over
tens of seconds, so medians over many short segments spread across the
whole run are what make runs repeatable.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Build output and progress go to
standard error. Exits non-zero, without a result line, if the build or a
process fails or a result is malformed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("open", "tcp")
PROCESSES = 20
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def measure(exe, args, part, seconds, env):
    """Runs process number `part` of the run and returns its parsed result."""
    command = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--part", str(part),
    ]
    try:
        # Every phase of a process is bounded by its share of --seconds;
        # the margin covers set-up, the correctness check and warm-up.
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True, timeout=4 * seconds + 30
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark process did not finish: {e}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark process exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if set(result) != RESULT_KEYS or not result["metrics"]:
        fail(f"result has keys {sorted(result)}, expected {sorted(RESULT_KEYS)}")
    return result


def combine(results):
    names = results[0]["metrics"]
    if any(r["metrics"].keys() != names.keys() for r in results):
        fail("processes reported different metrics")
    metrics = {
        name: {
            "value": statistics.median(r["metrics"][name]["value"] for r in results),
            "unit": names[name]["unit"],
        }
        for name in names
    }
    return {
        "correct": all(r["correct"] is True for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed < 0:
        fail("--seed must be non-negative")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    exe = os.path.join(target, "release", "webmm-perfbench")
    results = []
    for k in range(PROCESSES):
        results.append(measure(exe, args, k, args.seconds / PROCESSES, env))
        print(f"process {k}: {json.dumps(results[-1])}", file=sys.stderr)
    print(json.dumps(combine(results)))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
