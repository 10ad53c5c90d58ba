#!/usr/bin/env python3
"""Diffs a bench --json output against a committed baseline snapshot.

Usage: compare_baseline.py BASELINE.json CURRENT.json [--threshold 0.15]
       compare_baseline.py --self-test

Matches rows by their identity fields (algorithm / mode / threads /
class) and warns — never fails — when a latency metric (ms/q) regresses
by more than the threshold, or when a row or metric disappears. A
comparison that cannot see any data (a file without rows, a schema
rename, two different benches diffed against each other, a baseline row
carrying none of the latency metrics) also warns instead of silently
passing as "0 rows compared". Output uses GitHub Actions "::warning::"
annotations so regressions surface on the workflow summary while keeping
the perf trajectory advisory: the baselines are machine-dependent
snapshots, and CI runners are noisy, so a hard gate would flake. Always
exits 0 (the --self-test mode exits nonzero on failure).
"""

import argparse
import json
import os
import sys
import tempfile

# Fields that identify a row within a bench report. Absent fields are
# skipped, so benches only pay for the dimensions they report (pool is
# micro_paged's buffer-pool size; without it that bench's per-pool rows
# would collide on one key and silently shadow each other).
KEY_FIELDS = ("class", "algorithm", "mode", "threads", "pool")
# Latency metrics to diff (higher = worse). Throughput/alloc metrics are
# reported for information only.
LATENCY_FIELDS = ("ms_per_query", "warm_ms_per_query", "cold_ms_per_query")


def row_key(row):
    return tuple((f, row[f]) for f in KEY_FIELDS if f in row)


def fmt_key(key):
    return " ".join(f"{f}={v}" for f, v in key)


def compare(base, cur, threshold, warn):
    """Diffs two parsed bench documents; calls warn(message) per finding.

    Returns the number of baseline rows that matched a current row.
    """
    name = cur.get("bench", "?")
    if base.get("bench") not in (None, name):
        warn(f"{name}: baseline is from a different bench "
             f"({base.get('bench')!r}); refresh bench/baseline/")
    base_rows = {row_key(r): r for r in base.get("rows", [])}
    cur_rows = {row_key(r): r for r in cur.get("rows", [])}
    if not base_rows:
        warn(f"{name}: baseline has no rows — nothing was compared; "
             f"refresh bench/baseline/")
    if not cur_rows:
        warn(f"{name}: current run produced no rows")

    for key, brow in base_rows.items():
        crow = cur_rows.get(key)
        if crow is None:
            warn(f"{name}: baseline row missing from current run: "
                 f"{fmt_key(key)}")
            continue
        compared = 0
        for field in LATENCY_FIELDS:
            if field not in brow:
                continue
            if field not in crow:
                warn(f"{name}: metric {field} missing for {fmt_key(key)}")
                continue
            compared += 1
            b, c = brow[field], crow[field]
            if b < 0 or c < 0:
                warn(f"{name}: {field} has a negative value "
                     f"({b} -> {c}) for {fmt_key(key)}")
                continue
            if b == 0:
                # Zero is a legitimate metric value (e.g. a ratio of an
                # unmeasured mode), not "metric absent" — absence is
                # decided by key presence above. A growth from exactly 0
                # has no finite ratio, so it gets its own warning.
                if c > 0:
                    warn(f"{name}: {field} grew from a 0 baseline to "
                         f"{c:.3f} for {fmt_key(key)}")
                continue
            ratio = c / b
            if ratio > 1.0 + threshold:
                warn(f"{name}: {field} regressed {ratio:.2f}x "
                     f"({b:.3f} -> {c:.3f} ms/q) for {fmt_key(key)}")
        if compared == 0 and not any(f in brow for f in LATENCY_FIELDS):
            warn(f"{name}: baseline row carries no latency metric "
                 f"({', '.join(LATENCY_FIELDS)}): {fmt_key(key)}")

    new_rows = sum(1 for k in cur_rows if k not in base_rows)
    if new_rows:
        print(f"{name}: {new_rows} current row(s) have no baseline yet "
              f"(refresh bench/baseline/ to start tracking them)")
    return sum(1 for k in base_rows if k in cur_rows)


def self_test():
    """Asserts every warning class fires on synthetic inputs."""
    def run(base, cur, threshold=0.15):
        warnings = []
        compare(base, cur, threshold, warnings.append)
        return warnings

    row = {"algorithm": "A", "mode": "m", "threads": 1, "ms_per_query": 10.0}
    failures = []

    def check(label, warnings, expect_substr):
        if not any(expect_substr in w for w in warnings):
            failures.append(f"{label}: expected a warning containing "
                            f"{expect_substr!r}, got {warnings}")

    # Regression beyond threshold warns; within threshold does not.
    slow = dict(row, ms_per_query=20.0)
    check("regression", run({"rows": [row]}, {"rows": [slow]}), "regressed")
    ok = run({"rows": [row]}, {"rows": [dict(row, ms_per_query=10.5)]})
    if ok:
        failures.append(f"within-threshold: expected no warnings, got {ok}")

    # Baseline row missing from the current report.
    other = dict(row, algorithm="B")
    check("missing row", run({"rows": [row]}, {"rows": [other]}),
          "missing from current")

    # Metric present in baseline but dropped from the current report.
    dropped = {k: v for k, v in row.items() if k != "ms_per_query"}
    check("missing metric", run({"rows": [row]}, {"rows": [dropped]}),
          "metric ms_per_query missing")

    # Baseline without rows (schema rename / wrong file) must not pass
    # silently.
    check("empty baseline", run({}, {"rows": [row]}), "no rows")
    check("empty current", run({"rows": [row]}, {"rows": []}),
          "produced no rows")

    # Two different benches diffed against each other.
    check("bench mismatch",
          run({"bench": "micro_a", "rows": [row]},
              {"bench": "micro_b", "rows": [row]}),
          "different bench")

    # A baseline row with no latency metric at all cannot gate anything.
    bare = {"algorithm": "A", "mode": "m", "threads": 1, "qps": 5.0}
    check("no latency fields", run({"rows": [bare]}, {"rows": [bare]}),
          "no latency metric")

    # Rows differing only in an optional key dimension (pool) must not
    # shadow each other: a regression in one of them has to surface.
    pool_a = dict(row, pool="pool2pct")
    pool_b = dict(row, pool="pool25pct")
    check("pool rows distinct",
          run({"rows": [pool_a, pool_b]},
              {"rows": [pool_a, dict(pool_b, ms_per_query=20.0)]}),
          "regressed")

    # A legitimately zero-valued metric is still a present metric: it
    # must neither warn when unchanged nor count the row as metric-free.
    zero = dict(row, ms_per_query=0.0)
    stayed = run({"rows": [zero]}, {"rows": [zero]})
    if stayed:
        failures.append(f"zero metric unchanged: expected no warnings, "
                        f"got {stayed}")
    check("zero baseline growth",
          run({"rows": [zero]}, {"rows": [dict(row, ms_per_query=3.0)]}),
          "grew from a 0 baseline")
    check("negative metric",
          run({"rows": [dict(row, ms_per_query=-1.0)]}, {"rows": [row]}),
          "negative value")

    # End-to-end through main() and real files: exercises the argument
    # and file-loading path.
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fb,\
         tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fc:
        json.dump({"bench": "t", "rows": [row]}, fb)
        json.dump({"bench": "t", "rows": [slow]}, fc)
    try:
        if main([fb.name, fc.name]) != 0:
            failures.append("main() must always exit 0 on comparisons")
    finally:
        os.unlink(fb.name)
        os.unlink(fc.name)

    if failures:
        for f in failures:
            print(f"SELF-TEST FAILURE: {f}")
        return 1
    print("compare_baseline.py self-test: all warning classes fire")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="warn when ms/q grows by more than this "
                             "fraction (default 0.15)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("baseline and current are required unless --self-test")

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.current) as f:
            cur = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"::warning::bench baseline diff skipped: {e}")
        return 0

    warnings = []

    def warn(message):
        warnings.append(message)
        print(f"::warning::{message}")

    matched = compare(base, cur, args.threshold, warn)
    name = cur.get("bench", "?")
    print(f"{name}: compared {matched}/{len(base.get('rows', []))} baseline "
          f"rows, {len(warnings)} warning(s), "
          f"threshold +{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
