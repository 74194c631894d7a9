#!/usr/bin/env python3
"""Per-thread CPU and wake-ups of a running process (Linux only).

Usage:

    python3 scripts/thread_cpu.py <pid> [--seconds S]

Samples /proc/<pid>/task/*/{comm,schedstat} twice, S seconds apart
(default 1), and prints each thread's CPU time in ms/s and its scheduler
timeslices per second (one per wake-up of a blocked thread, plus
preemptions), sorted by thread id, then the same summed per thread name.
Threads that start or exit between the samples are left out. The daemon
names its threads `pstrace-accept`, `pstrace-shard-<i>`, `pstrace-conn`
(connection readers) and `pstrace-metrics`.
"""

import argparse
import os
import sys
import time


def sample(pid):
    """{tid: (comm, cpu_ns, timeslices)} for every thread of `pid`."""
    out = {}
    base = f"/proc/{pid}/task"
    for tid in os.listdir(base):
        try:
            with open(f"{base}/{tid}/comm") as f:
                comm = f.read().strip()
            with open(f"{base}/{tid}/schedstat") as f:
                cpu_ns, _wait_ns, slices = (int(x) for x in f.read().split()[:3])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread exited mid-listing
        out[int(tid)] = (comm, cpu_ns, slices)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pid", type=int)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    if args.seconds <= 0:
        sys.exit("--seconds must be > 0")

    start = sample(args.pid)
    t0 = time.monotonic()
    time.sleep(args.seconds)
    end = sample(args.pid)
    elapsed = time.monotonic() - t0

    rows = []
    for tid in sorted(set(start) & set(end)):
        comm, cpu1, n1 = end[tid]
        _, cpu0, n0 = start[tid]
        rows.append((tid, comm, (cpu1 - cpu0) / 1e6 / elapsed, (n1 - n0) / elapsed))

    print(f"# pid {args.pid}, {elapsed:.2f} s")
    print(f"{'tid':>8}  {'thread':<16} {'cpu ms/s':>9} {'wakeups/s':>10}")
    for tid, comm, cpu, wakes in rows:
        print(f"{tid:>8}  {comm:<16} {cpu:>9.2f} {wakes:>10.0f}")

    names = {}
    for _, comm, cpu, wakes in rows:
        count, c, w = names.get(comm, (0, 0.0, 0.0))
        names[comm] = (count + 1, c + cpu, w + wakes)
    print()
    print(f"{'thread':<16} {'threads':>7} {'cpu ms/s':>9} {'wakeups/s':>10}")
    for comm, (count, cpu, wakes) in sorted(names.items(), key=lambda kv: -kv[1][1]):
        print(f"{comm:<16} {count:>7} {cpu:>9.2f} {wakes:>10.0f}")
    total_cpu = sum(r[2] for r in rows)
    total_wakes = sum(r[3] for r in rows)
    print(f"{'total':<16} {len(rows):>7} {total_cpu:>9.2f} {total_wakes:>10.0f}")


if __name__ == "__main__":
    main()
