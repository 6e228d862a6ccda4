#!/usr/bin/env python3
"""Per-thread on-CPU and run-queue time of a running process, by name.

Reads ``/proc/<pid>/task/*/comm`` and ``/proc/<pid>/task/*/schedstat``
twice, ``--seconds`` apart (after an optional ``--delay``), and prints,
per thread name, how many milliseconds the process's threads of that
name spent on a CPU and waiting in a run queue between the two samples.
A thread that starts between the samples counts from zero; one that
ends between them is left out. Linux only (schedstat must be enabled,
as it is on stock kernels).

Run-queue time is the layer that per-request spans cannot see: time a
thread was ready to run but had no core. Comparing it before and after
a change to the thread model names that layer. Example, against a
benchmark run that is in its measured window::

    python3 tools/threadstat.py "$(pgrep -n benchmark)" --delay 4 --seconds 4

Read-only: it reads the target's /proc entries and nothing else.
"""

import argparse
import os
import sys
import time


def sample(pid):
    """{tid: (name, cpu_ns, runq_ns)} for every live thread of `pid`."""
    tasks = "/proc/%d/task" % pid
    out = {}
    for tid in os.listdir(tasks):
        try:
            with open(os.path.join(tasks, tid, "comm")) as f:
                name = f.read().strip()
            with open(os.path.join(tasks, tid, "schedstat")) as f:
                cpu, runq = f.read().split()[:2]
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread ended while we looked
        out[tid] = (name, int(cpu), int(runq))
    return out


def delta(before, after):
    """{name: [threads, cpu_ms, runq_ms]} over the threads alive at the
    second sample."""
    rows = {}
    for tid, (name, cpu, runq) in after.items():
        _, cpu0, runq0 = before.get(tid, (name, 0, 0))
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (cpu - cpu0) / 1e6
        row[2] += (runq - runq0) / 1e6
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pid", type=int, help="process to sample")
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="time between the two samples (default 4)")
    parser.add_argument("--delay", type=float, default=0.0,
                        help="wait this long before the first sample")
    args = parser.parse_args()

    if args.delay > 0:
        time.sleep(args.delay)
    try:
        before = sample(args.pid)
        time.sleep(args.seconds)
        after = sample(args.pid)
    except FileNotFoundError:
        sys.exit("threadstat: no process %d" % args.pid)
    rows = delta(before, after)
    total = [sum(r[i] for r in rows.values()) for i in range(3)]

    print("%-20s %7s %10s %10s" % ("thread", "threads", "cpu_ms", "runq_ms"))
    for name, (n, cpu, runq) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        print("%-20s %7d %10.1f %10.1f" % (name, n, cpu, runq))
    print("%-20s %7d %10.1f %10.1f" % ("total", total[0], total[1], total[2]))


if __name__ == "__main__":
    main()
