#!/usr/bin/env python3
"""Build and run the pstrace benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <live-long|fleet-short> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a workspace of its own that depends on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `perfbench/target`), runs it, and relays its result: the last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live-long", "fleet-short")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)  # a relative value is relative to the root
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    finally:
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it, or it was never made
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"run failed with exit code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"result line is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result line has keys {sorted(result)}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
