#!/usr/bin/env python3
"""Builds banks_bench from source and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/e2e
(default .bench_build/e2e); a traced run writes its spans next to it.
Prints banks_bench's report, then as the last line one JSON object with
`correct`, `attempted`, `failed` and the metrics BENCHMARK.json lists
for the mode: its end_to_end metrics untraced, its per_layer metrics
traced. `correct` is false unless the answer checks passed and the run
is valid (the generator kept its schedule).

A run whose generator ran more than DISTURBED_LAG_MS late (p95) met a
host stall: it measured the stall as much as the system. It is run
once more with the same seed while the time budget lasts, and the
attempt whose generator ran least late is reported.
`correct` also requires every attempt's answer checks to have passed.
Exits nonzero, printing no result, when the build or a run produced no
record.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_BUDGET_S = 160  # for all attempts, build excluded
ATTEMPTS = 2  # one retry keeps a comparison of 92 runs within the hour
# Generator lateness (bench.sched_lag_p95_ms) of an undisturbed run is
# 0.1-0.4 ms on the open loops; host stalls push it to 0.7-4 ms and the
# run's latencies up with it. A closed loop's lateness is always 0.
DISTURBED_LAG_MS = 1.0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "banks_bench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "banks_bench")


def run_once(cmd, timeout):
    """Runs banks_bench, echoing its report; returns (exit code, record)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith('{"bench":"banks_bench"'):
            record = json.loads(line)
        else:
            print(line)
    return proc.returncode, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work-dir={build_dir}", "--json"]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
    def lag_ms(rec):
        return rec["metrics"]["bench.sched_lag_p95_ms"]["value"]

    deadline = time.monotonic() + RUN_BUDGET_S
    record = None  # the attempt reported
    checks_ok = True
    for attempt in range(1, ATTEMPTS + 1):
        start = time.monotonic()
        try:
            returncode, rec = run_once(cmd, deadline - start)
        except subprocess.TimeoutExpired:
            print("run.py: banks_bench timed out", file=sys.stderr)
            if record is None:
                return 1
            break
        if rec is None:
            print(f"run.py: banks_bench exited {returncode} without a record",
                  file=sys.stderr)
            return 1
        checks_ok = checks_ok and returncode == 0 and bool(rec["checks_ok"])
        if record is None or lag_ms(rec) < lag_ms(record):
            record = rec
        took = time.monotonic() - start
        if (lag_ms(rec) <= DISTURBED_LAG_MS or attempt == ATTEMPTS
                or time.monotonic() + 1.25 * took > deadline):
            break
        print(f"run.py: attempt {attempt}: the generator ran "
              f"{lag_ms(rec):.2f} ms late (p95), running it again",
              file=sys.stderr)
    print(f"attempts {attempt}, reported the one whose generator ran "
          f"{lag_ms(record):.2f} ms late")
    print(json.dumps(record))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in record["metrics"]:
            print(f"run.py: metric {m['name']} missing from the record",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": record["metrics"][m["name"]]["value"],
                              "unit": m["unit"]}
    attempted = int(record["attempted"])
    print(json.dumps({
        "correct": checks_ok and bool(record["valid"]) and attempted > 0,
        "attempted": max(1, attempted),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
