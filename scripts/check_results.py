#!/usr/bin/env python3
"""Golden check for the paper's tables and figures in docs/results/.

Runs each release `pstrace-bench` binary and asserts that
`docs/results/<bin>.txt` is exactly the start of its stdout. The only
output allowed after the golden is one blank line followed by the
binary's wall-clock block (`phase timings ...` or `per-case wall
clock ...`), whose numbers change from run to run.

Regenerate a golden after an intended change with
`cargo run -q --release -p pstrace-bench --bin <bin>`, cutting the
wall-clock block.

Run from anywhere: python3 scripts/check_results.py [BIN ...]
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "docs" / "results"
BINS = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "fig5", "fig6", "fig7", "ablation", "partition", "campaign",
]
WALL_CLOCK = ("phase timings ", "per-case wall clock ")


def check(name: str) -> str | None:
    """Returns why `name`'s output breaks the rule, or None."""
    golden = (RESULTS / f"{name}.txt").read_text(encoding="utf-8")
    out = subprocess.run(
        ["cargo", "run", "-q", "--release", "--locked",
         "-p", "pstrace-bench", "--bin", name],
        cwd=REPO, check=True, timeout=600, capture_output=True,
        text=True, encoding="utf-8",
    ).stdout
    if not out.startswith(golden):
        got = out.splitlines()
        for i, want in enumerate(golden.splitlines()):
            if i >= len(got) or got[i] != want:
                have = got[i] if i < len(got) else "<end of output>"
                return f"line {i + 1}: want {want!r}, got {have!r}"
        return "output differs from the golden at its last line break"
    rest = out[len(golden):]
    if rest and not (rest.startswith("\n") and rest[1:].startswith(WALL_CLOCK)):
        return f"unexpected output after the golden: {rest[:80]!r}"
    return None


def main() -> int:
    names = sys.argv[1:] or BINS
    failed = 0
    for name in names:
        problem = check(name)
        if problem is None:
            print(f"ok    {name}")
        else:
            failed += 1
            print(f"FAIL  {name}: {problem}")
    if failed:
        print(f"{failed} of {len(names)} results differ from docs/results/")
        return 1
    print(f"all {len(names)} results match docs/results/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
