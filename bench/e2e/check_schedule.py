#!/usr/bin/env python3
"""Schedule determinism check for banks_bench (registered with ctest).

    check_schedule.py path/to/banks_bench

For every workload: two processes given the same seed must build the
same schedule (query pool, arrivals, algorithm draws, update batches),
and a different seed must build a different one. Exits nonzero otherwise.
"""
import subprocess
import sys

WORKLOADS = ["tight-closed", "interactive-open", "paged-open", "read-write"]


def schedule_hash(binary, workload, seed):
    out = subprocess.run(
        [binary, f"--workload={workload}", f"--seed={seed}", "--smoke",
         "--schedule-hash"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=120).stdout
    for line in out.splitlines():
        if line.startswith("schedule_hash "):
            return line.split()[1]
    raise RuntimeError(f"no schedule_hash line from {workload} seed {seed}")


def main():
    binary = sys.argv[1]
    ok = True
    for workload in WORKLOADS:
        a = schedule_hash(binary, workload, 7)
        b = schedule_hash(binary, workload, 7)
        c = schedule_hash(binary, workload, 8)
        same, differs = a == b, a != c
        ok = ok and same and differs
        print(f"{workload}: seed 7 {a} / {b} ({'same' if same else 'DIFFERENT'}),"
              f" seed 8 {c} ({'differs' if differs else 'IDENTICAL'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
