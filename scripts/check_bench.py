#!/usr/bin/env python3
"""Fleet-ingest performance gate.

Runs a quick `pstrace fleet` throughput measurement (256 concurrent
chaos-wrapped sessions against a 4-shard daemon) RUNS times and compares
the median aggregate records/s against the committed baseline in
BENCH_fleet.json. On a shared runner one run can swing wider than the
band; the median of several is steadier.

The gate fails when the measured rate collapses below 65% of the
baseline — a regression in the event-loop hot path, the shard router, or
the session decoder. Rates *above* 135% of the baseline only print a
note: speedups are welcome, but the baseline should then be refreshed so
the gate keeps teeth.

Re-baselining (after an intentional perf change, or on new hardware):

    python3 scripts/check_bench.py --rebaseline

then commit the updated BENCH_fleet.json. Baselines are machine-relative;
CI compares against a baseline produced on comparable runners, and the
generous 35% band absorbs ordinary runner jitter.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_fleet.json"

# The measurement the baseline was produced with. Keep in sync with
# BENCH_fleet.json: comparing different workloads is meaningless.
FLEET_ARGS = [
    "fleet",
    "--seed", "99",
    "--sessions", "256",
    "--concurrency", "64",
    "--shards", "4",
    "--records", "200",
]

FAIL_BELOW = 0.65
NOTE_ABOVE = 1.35
RUNS = 5


def measure() -> dict:
    out = tempfile.NamedTemporaryFile(
        mode="r", suffix=".json", prefix="pstrace-fleet-", delete=False
    )
    out.close()
    cmd = [
        "cargo", "run", "-q", "--release", "--locked",
        "-p", "pstrace-cli", "--bin", "pstrace", "--",
        *FLEET_ARGS, "--json", out.name,
    ]
    print("==>", " ".join(cmd))
    subprocess.run(cmd, cwd=REPO, check=True, timeout=1800)
    with open(out.name, encoding="utf-8") as f:
        result = json.load(f)
    pathlib.Path(out.name).unlink(missing_ok=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="write the median run to BENCH_fleet.json instead of comparing",
    )
    args = parser.parse_args()

    results = sorted((measure() for _ in range(RUNS)),
                     key=lambda r: float(r["records_per_sec"]))
    result = results[RUNS // 2]
    measured = float(result["records_per_sec"])
    rates = ", ".join(f"{float(r['records_per_sec']):.0f}" for r in results)
    print(f"measured: median {measured:.0f} records/s of {RUNS} runs ({rates}) "
          f"({result['sessions']} sessions x {result['records_per_session']} records, "
          f"{result['shards']} shards, {result['concurrency']} clients)")

    if args.rebaseline:
        BASELINE.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        print(f"wrote baseline {BASELINE}")
        return 0

    if not BASELINE.exists():
        print(f"error: no baseline at {BASELINE}; "
              "run scripts/check_bench.py --rebaseline and commit it",
              file=sys.stderr)
        return 1
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    base = float(baseline["records_per_sec"])
    ratio = measured / base if base > 0 else float("inf")
    print(f"baseline: {base:.0f} records/s -> ratio {ratio:.2f} "
          f"(fail < {FAIL_BELOW}, note > {NOTE_ABOVE})")

    if ratio < FAIL_BELOW:
        print(f"FAIL: fleet ingest throughput collapsed to {ratio:.0%} of baseline; "
              "if intentional, re-baseline with scripts/check_bench.py --rebaseline",
              file=sys.stderr)
        return 1
    if ratio > NOTE_ABOVE:
        print(f"note: throughput is {ratio:.0%} of baseline — consider refreshing "
              "BENCH_fleet.json (scripts/check_bench.py --rebaseline) so the gate keeps teeth")
    print("fleet perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
