#!/usr/bin/env python3
"""Correctness smoke for the gated benchmark.

Runs one short perfbench pass per workload:

    python3 perfbench/run.py --workload live-long --seed 7 --seconds 1 --trace 0
    python3 perfbench/run.py --workload fleet-short --seed 7 --seconds 1 --trace 0

and fails unless each JSON result line reads `"correct": true` with
`"failed": 0` and at least one attempted operation. perfbench checks
every daemon report against the batch localization DP, so this gate
runs the optimized ingest path (live-long) and the daemon's session
lifecycle under many short resumable sessions on a strict WAL
(fleet-short) against that oracle.

Run from the repository root: python3 scripts/check_perfbench.py
"""

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["live-long", "fleet-short"]


def smoke(workload: str) -> bool:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                          timeout=1200)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench smoke {workload}: run failed (exit {done.returncode})",
              file=sys.stderr)
        return False
    result = json.loads(lines[-1])
    ok = (result.get("correct") is True and result.get("failed") == 0
          and result.get("attempted", 0) > 0)
    verdict = "ok" if ok else "FAILED"
    print(f"perfbench smoke {workload}: {verdict} (correct={result.get('correct')}, "
          f"attempted={result.get('attempted')}, failed={result.get('failed')})")
    return ok


def main() -> int:
    results = [smoke(workload) for workload in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
