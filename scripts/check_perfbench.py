#!/usr/bin/env python3
"""Correctness smoke for the gated benchmark.

Runs one short live-long perfbench pass:

    python3 perfbench/run.py --workload live-long --seed 7 --seconds 1 --trace 0

and fails unless its JSON result line reads `"correct": true` with
`"failed": 0` and at least one attempted operation. perfbench checks
every daemon report against the batch localization DP, so this gate
runs the optimized ingest path against that oracle.

Run from the repository root: python3 scripts/check_perfbench.py
"""

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
CMD = [
    sys.executable, "perfbench/run.py",
    "--workload", "live-long", "--seed", "7", "--seconds", "1", "--trace", "0",
]


def main() -> int:
    done = subprocess.run(CMD, cwd=REPO, stdout=subprocess.PIPE, text=True,
                          timeout=1200)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench smoke: run failed (exit {done.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    ok = (result.get("correct") is True and result.get("failed") == 0
          and result.get("attempted", 0) > 0)
    verdict = "ok" if ok else "FAILED"
    print(f"perfbench smoke: {verdict} (correct={result.get('correct')}, "
          f"attempted={result.get('attempted')}, failed={result.get('failed')})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
