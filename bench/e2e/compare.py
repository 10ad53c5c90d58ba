#!/usr/bin/env python3
"""Compares two sets of banks_bench runs, workload by workload.

    compare.py BASE_DIR CANDIDATE_DIR [--benchmark BENCHMARK.json]
    compare.py --self-test

Each directory holds run records: files whose lines include the JSON
record banks_bench --json prints (run.py output and bare records both
work). For every workload and metric it reports each side's median and
quartiles, the share of run pairs the candidate wins (pairs in file-name
order, ties count for neither side), and a verdict:

  regression  candidate median worse than base by more than the bound
  unresolved  base runs spread (IQR / median) wider than the bound, and
              the candidate's runs do not all beat all base runs
  gain        candidate wins >= 90% of pairs and the medians differ by
              more than the base IQR
  withheld    would be a gain, but the candidate failed a larger share
              of its requests than the base
  ok          none of the above

Bounds and directions come from BENCHMARK.json (end_to_end metrics have
bounds; per_layer metrics are reported without a verdict). Runs marked
invalid (generator ran late) or with failed answer checks are dropped
with a warning. The comparison is refused (exit 2) when the two sides
were measured on different machine fingerprints, or when runs of one
workload differ in scale, window, warm-up, rate, ladder or --smoke; a
CPU calibration drift above 10% is flagged.
Exit status: 0 clean, 1 regression, 2 refused.
"""
import argparse
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
CALIB = "bench.cpu_calib_ms"
# Record fields that define the offered load: runs of one workload are
# only comparable when all of them agree.
SHAPE_KEYS = ("scale", "window_s", "warmup_s", "rate_qps", "ladder", "smoke")


def load_records(directory, warnings):
    records = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        record = None
        with open(path) as f:
            for line in f:
                if not line.startswith("{"):
                    continue
                try:
                    parsed = json.loads(line)
                except ValueError:
                    continue
                if parsed.get("bench") == "banks_bench":
                    record = parsed
        if record is None:
            continue
        if not record.get("valid", True):
            warnings.append(f"{path}: invalid run (generator ran late), dropped")
            continue
        if not record.get("checks_ok", True):
            warnings.append(f"{path}: answer checks failed, dropped")
            continue
        records.append(record)
    return records


def shape_mismatch(records):
    """SHAPE_KEYS on which the records disagree."""
    return [k for k in SHAPE_KEYS
            if len({json.dumps(r.get(k), sort_keys=True) for r in records}) > 1]


def failure_share(records):
    attempted = sum(r.get("attempted", 0) for r in records)
    failed = sum(r.get("failed", 0) for r in records)
    return failed / attempted if attempted else 0.0


def fingerprint(record):
    fp = record["fingerprint"]
    return (fp["nproc"], fp["cpu_model"], fp["build_type"])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, cand, better, bound):
    """Classifies one metric; `better` is 'lower' or 'higher'."""
    sign = 1 if better == "lower" else -1
    q1b, mb, q3b = quartiles(base)
    _, mc, _ = quartiles(cand)
    pairs = list(zip(base, cand))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return "-", win_share
    spread = (q3b - q1b) / abs(mb) if mb else 0.0
    worse = sign * (mc - mb)
    if bound == 0:
        return ("ok" if mc == mb else "changed"), win_share
    if worse > bound * abs(mb):
        return "regression", win_share
    all_better = all(sign * (b - c) > 0 for b in base for c in cand)
    if spread > bound and not all_better:
        return "unresolved", win_share
    if win_share >= 0.9 and -worse > (q3b - q1b):
        return "gain", win_share
    return "ok", win_share


def compare(base_dir, cand_dir, benchmark_path, out=sys.stdout):
    with open(benchmark_path) as f:
        bench = json.load(f)
    spec = {}
    for m in bench.get("end_to_end", []):
        spec[m["name"]] = (m["better"], m["bound"], m["unit"])
    for m in bench.get("per_layer", []):
        spec[m["name"]] = (m["better"], None, m["unit"])

    warnings = []
    base = load_records(base_dir, warnings)
    cand = load_records(cand_dir, warnings)
    for w in warnings:
        print(f"warning: {w}", file=out)
    if not base or not cand:
        print("refused: a side has no valid records", file=out)
        return 2, {}
    prints = {fingerprint(r) for r in base} | {fingerprint(r) for r in cand}
    if len(prints) != 1:
        print(f"refused: runs come from different machines: {sorted(prints)}",
              file=out)
        return 2, {}
    for workload in sorted({r["workload"] for r in base + cand}):
        keys = shape_mismatch([r for r in base + cand
                               if r["workload"] == workload])
        if keys:
            print(f"refused: {workload} runs differ in {', '.join(keys)}",
                  file=out)
            return 2, {}

    def calib(records):
        values = [r["metrics"][CALIB]["value"] for r in records
                  if CALIB in r["metrics"]]
        return statistics.median(values) if values else None

    cb, cc = calib(base), calib(cand)
    drift = cb is not None and cc is not None and abs(cc / cb - 1) > 0.10
    if drift:
        print(f"flag: CPU calibration drift {cb:.2f} -> {cc:.2f} ms "
              f"({100 * (cc / cb - 1):+.1f}%): the machine itself changed speed",
              file=out)

    results = {}
    status = 0
    groups = sorted({(r["workload"], r.get("traced", False)) for r in base})
    for workload, traced in groups:
        b_runs = [r for r in base
                  if r["workload"] == workload and r.get("traced", False) == traced]
        c_runs = [r for r in cand
                  if r["workload"] == workload and r.get("traced", False) == traced]
        if not c_runs:
            print(f"warning: no candidate runs for {workload}", file=out)
            continue
        print(f"\n{workload}{' (traced)' if traced else ''}: "
              f"{len(b_runs)} base / {len(c_runs)} candidate runs", file=out)
        fb, fc = failure_share(b_runs), failure_share(c_runs)
        more_failures = fc > fb
        if more_failures:
            print(f"  flag: candidate fails {100 * fc:.2f}% of requests, "
                  f"base {100 * fb:.2f}%: gains withheld", file=out)
        print(f"  {'metric':36s} {'base q1/med/q3':>30s} "
              f"{'cand q1/med/q3':>30s} {'wins':>5s}  verdict", file=out)
        names = [n for n in spec if all(n in r["metrics"] for r in b_runs + c_runs)]
        for name in names:
            better, bound, unit = spec[name]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            v, win_share = verdict(bv, cv, better, bound)
            if v == "gain" and more_failures:
                v = "withheld"
            results[(workload, traced, name)] = v
            if v == "regression":
                status = 1
            qb, qc = quartiles(bv), quartiles(cv)
            print(f"  {name:36s} {qb[0]:9.4g}/{qb[1]:9.4g}/{qb[2]:9.4g} "
                  f"{qc[0]:9.4g}/{qc[1]:9.4g}/{qc[2]:9.4g} "
                  f"{100 * win_share:4.0f}%  {v} ({unit})", file=out)
    return status, results


# ---- Self-test ---------------------------------------------------------------

def _record(workload, metrics, calib=40.0, cpu="cpu-a", valid=True,
            checks_ok=True, failed=0, **shape):
    m = {name: {"value": v, "unit": "ms"} for name, v in metrics.items()}
    m[CALIB] = {"value": calib, "unit": "ms"}
    record = {"bench": "banks_bench", "workload": workload, "traced": False,
              "valid": valid, "checks_ok": checks_ok, "attempted": 100,
              "failed": failed, "scale": 0.25, "window_s": 20,
              "warmup_s": 3, "rate_qps": 240, "smoke": False,
              "ladder": [{"multiplier": 1, "share": 1}],
              "fingerprint": {"nproc": 4, "cpu_model": cpu,
                              "build_type": "Release"},
              "metrics": m}
    record.update(shape)
    return record


def _write(directory, records):
    os.makedirs(directory, exist_ok=True)
    for i, r in enumerate(records):
        with open(os.path.join(directory, f"run{i:02d}.json"), "w") as f:
            f.write("report line\n" + json.dumps(r) + "\n")


def self_test():
    bench = {"end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.05},
        {"name": "count", "unit": "count", "better": "lower", "bound": 0}],
        "per_layer": [{"name": "layer", "unit": "ms", "better": "lower"}]}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        bpath = os.path.join(tmp, "BENCHMARK.json")
        with open(bpath, "w") as f:
            json.dump(bench, f)

        def case(name, base, cand, expect_status, expect=None):
            d = os.path.join(tmp, name)
            _write(os.path.join(d, "a"), base)
            _write(os.path.join(d, "b"), cand)
            log = open(os.devnull, "w")
            status, results = compare(os.path.join(d, "a"), os.path.join(d, "b"),
                                      bpath, out=log)
            if status != expect_status:
                failures.append(f"{name}: status {status} != {expect_status}")
            for key, want in (expect or {}).items():
                got = results.get(("w", False, key))
                if got != want:
                    failures.append(f"{name}: {key} verdict {got} != {want}")

        def runs(lat, qps=100.0, noisy=None, count=7, n=10, **kw):
            out = []
            for i in range(n):
                wobble = 1 + 0.01 * ((i % 3) - 1)
                out.append(_record("w", {
                    "lat": lat * wobble, "qps": qps * wobble,
                    "noisy": (noisy or 10.0) * (1 + 0.3 * ((i % 2) * 2 - 1)),
                    "count": count, "layer": 1.0}, **kw))
            return out

        case("same", runs(10), runs(10), 0,
             {"lat": "ok", "qps": "ok", "count": "ok", "noisy": "unresolved",
              "layer": "-"})
        case("regression", runs(10), runs(13), 1, {"lat": "regression"})
        case("throughput_drop", runs(10), runs(10, qps=80), 1,
             {"qps": "regression"})
        case("gain", runs(10), runs(7), 0, {"lat": "gain"})
        case("count_changed", runs(10), runs(10, count=8), 0,
             {"count": "changed"})
        case("fingerprint", runs(10), runs(10, cpu="cpu-b"), 2)
        case("invalid_dropped", runs(10) + [_record("w", {"lat": 99.0}, valid=False)],
             runs(10), 0, {"lat": "ok"})
        # A run that failed its checks is dropped, not compared: the
        # candidate's fast broken run would otherwise read as a gain.
        case("checks_failed_dropped", runs(10),
             runs(1, checks_ok=False) + runs(10), 0, {"lat": "ok"})
        case("gain_withheld", runs(10), runs(7, failed=3), 0,
             {"lat": "withheld"})
        case("gain_kept_same_failures", runs(10, failed=3), runs(7, failed=3),
             0, {"lat": "gain"})
        for key, value in (("scale", 0.05), ("window_s", 2), ("warmup_s", 1),
                           ("rate_qps", 300), ("smoke", True),
                           ("ladder", [{"multiplier": 0.5, "share": 1}])):
            case(f"shape_{key}", runs(10), runs(10, **{key: value}), 2)
            case(f"shape_{key}_within_side",
                 runs(10) + runs(1, **{key: value}), runs(10), 2)
        d = os.path.join(tmp, "drift")
        _write(os.path.join(d, "a"), runs(10))
        _write(os.path.join(d, "b"), runs(10, calib=48.0))
        import io
        buf = io.StringIO()
        compare(os.path.join(d, "a"), os.path.join(d, "b"), bpath, out=buf)
        if "calibration drift" not in buf.getvalue():
            failures.append("drift: calibration drift not flagged")
    for f in failures:
        print(f"self-test FAILED: {f}")
    print("self-test", "ok" if not failures else "FAILED")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of banks_bench runs.")
    parser.add_argument("base", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.candidate:
        parser.error("BASE_DIR and CANDIDATE_DIR are required")
    status, _ = compare(args.base, args.candidate, args.benchmark)
    return status


if __name__ == "__main__":
    sys.exit(main())
