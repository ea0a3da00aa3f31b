#!/usr/bin/env python3
"""Bench regression guard: warn-only for wall-clock, fail-fast for
deterministic simulation outputs.

Two input formats, auto-detected:

* google-benchmark dumps (top-level "benchmarks" key, e.g.
  BENCH_kernel.json): wall-clock throughput comparison, warn-only by
  design. CI runners are shared machines, so a slowdown prints a
  GitHub Actions ::warning:: annotation instead of failing the run;
  halving throughput is the default bar.

* sweep-runner exports (top-level "sweeps" key, e.g.
  BENCH_backends.json, BENCH_faults.json): every point's metrics are
  deterministic simulation outputs. Metrics on the stable allowlist
  (byte-identity verdicts, audit results, op/span/transaction counts,
  integrity counters, fault-campaign fingerprints and checkpoint
  sizes) must match the committed baseline EXACTLY — any drift there
  means a behaviour change, not noise, and the script exits non-zero.
  Other metrics (throughput, latencies) are printed as informational
  diffs; wall_ms and perf blocks are host wall-clock and stay
  warn-only.

Both formats carry a schema version (sweep exports: top-level
"schema_version"; google-benchmark dumps and pre-versioned exports
count as version 0). The script refuses to compare files whose schema
versions differ, and refuses files newer than it understands —
regenerate the baseline or update the script instead of silently
diffing incompatible shapes.

Usage:
    check_bench_regression.py FRESH.json BASELINE.json [--tolerance F]

Tolerance applies to the wall-clock comparisons only (default 0.5:
warn when throughput halves / wall time doubles). Exit codes: 0 ok or
warnings only, 1 stable-metric regression or missing point, 2 schema
mismatch or unreadable input.
"""

import argparse
import json
import sys

# Newest sweep-export schema this script understands
# (telemetry::kSchemaVersion on the C++ side).
SUPPORTED_SCHEMA = 1

# Sweep-point metrics that are contractually stable: deterministic
# verdicts and integrity counters where ANY drift against the
# committed baseline is a regression, never noise. Everything else in
# a point is compared informationally.
STABLE_METRICS = frozenset({
    "audit_ok",
    "identical",
    "invariants_ok",
    "validation_failures",
    "corrupt",
    "wpq_lost",
    "wpq_flushed",
    "pages_dumped",
    "silent_corruptions",
    "ops",
    "spans",
    "intervals",
    "transactions",
    "committed",
    "checkpoint_deterministic",
    "checkpoint_kb",
    "fingerprint",
})

# Point keys that are not metrics.
NON_METRIC_KEYS = frozenset({"name", "wall_ms", "error", "perf"})


def schema_version(doc):
    """Schema version of a parsed dump (0 = pre-versioned)."""
    return int(doc.get("schema_version", 0))


def load_doc(path):
    with open(path) as f:
        return json.load(f)


# ----------------------------------------------------------------- #
# google-benchmark format: warn-only throughput comparison.
# ----------------------------------------------------------------- #

def bench_rates(doc):
    """Map benchmark name -> items_per_second. Aggregate entries
    (mean/median/stddev) are skipped so repeated runs compare the raw
    samples; the best sample per name wins (wall-clock noise only
    ever subtracts throughput)."""
    rates = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        rate = b.get("items_per_second")
        if rate:
            name = b["name"]
            rates[name] = max(rates.get(name, 0.0), rate)
    return rates


def compare_benchmarks(fresh_doc, base_doc, tolerance):
    fresh = bench_rates(fresh_doc)
    base = bench_rates(base_doc)
    for name, base_rate in sorted(base.items()):
        new_rate = fresh.get(name)
        if new_rate is None:
            print(f"::warning::bench {name}: present in baseline but "
                  f"missing from fresh run")
            continue
        if new_rate < tolerance * base_rate:
            print(f"::warning::bench {name}: {new_rate / 1e6:.2f} M/s "
                  f"vs baseline {base_rate / 1e6:.2f} M/s "
                  f"({new_rate / base_rate:.0%}) — below the "
                  f"{tolerance:.0%} warn threshold")
        else:
            print(f"ok   {name}: {new_rate / 1e6:.2f} M/s "
                  f"(baseline {base_rate / 1e6:.2f} M/s, "
                  f"{new_rate / base_rate:.0%})")
    for name in sorted(set(fresh) - set(base)):
        print(f"new  {name}: {fresh[name] / 1e6:.2f} M/s "
              f"(no baseline yet)")
    return 0


# ----------------------------------------------------------------- #
# sweep-runner format: exact-match gate on the stable allowlist.
# ----------------------------------------------------------------- #

def sweep_points(doc):
    """Map "sweep/point" -> point object."""
    points = {}
    for sweep in doc.get("sweeps", []):
        for point in sweep.get("points", []):
            points[f"{sweep['name']}/{point['name']}"] = point
    return points


def point_metrics(point):
    return {k: v for k, v in point.items() if k not in NON_METRIC_KEYS}


def compare_sweeps(fresh_doc, base_doc, tolerance):
    fresh = sweep_points(fresh_doc)
    base = sweep_points(base_doc)
    failed = False

    for name, bpoint in sorted(base.items()):
        fpoint = fresh.get(name)
        if fpoint is None:
            print(f"FAIL {name}: present in baseline but missing "
                  f"from fresh run")
            failed = True
            continue
        if fpoint.get("error"):
            print(f"FAIL {name}: fresh run errored: "
                  f"{fpoint['error']}")
            failed = True
            continue
        if bpoint.get("error"):
            print(f"note {name}: baseline recorded an error "
                  f"({bpoint['error']}); skipping metric diff")
            continue

        bmetrics = point_metrics(bpoint)
        fmetrics = point_metrics(fpoint)
        for key, bval in sorted(bmetrics.items()):
            fval = fmetrics.get(key)
            if key in STABLE_METRICS:
                if fval != bval:
                    print(f"FAIL {name}: stable metric {key} changed "
                          f"{bval} -> {fval}")
                    failed = True
            elif fval is None:
                print(f"::warning::{name}: metric {key} missing from "
                      f"fresh run")
            elif fval != bval:
                print(f"info {name}: {key} {bval} -> {fval}")

        # Host wall-clock: warn-only, shared runners are noisy.
        bwall, fwall = bpoint.get("wall_ms"), fpoint.get("wall_ms")
        if bwall and fwall and fwall * tolerance > bwall:
            print(f"::warning::{name}: wall_ms {bwall:.0f} -> "
                  f"{fwall:.0f} (>{1 / tolerance:.1f}x baseline)")

    for name in sorted(set(fresh) - set(base)):
        print(f"new  {name} (no baseline yet)")

    if failed:
        print("stable-metric regression detected")
        return 1
    print("all stable metrics match the baseline")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", help="newly generated bench/sweep json")
    ap.add_argument("baseline", help="committed baseline json")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="wall-clock warn threshold (fraction of "
                         "baseline throughput / inverse wall-time "
                         "factor)")
    args = ap.parse_args()

    try:
        fresh = load_doc(args.fresh)
        base = load_doc(args.baseline)
    except (OSError, ValueError) as e:
        print(f"error: cannot read bench json: {e}", file=sys.stderr)
        return 2

    fv, bv = schema_version(fresh), schema_version(base)
    if fv != bv:
        print(f"error: schema_version mismatch: fresh={fv} "
              f"baseline={bv}; regenerate the baseline with the "
              f"current tools instead of diffing across versions",
              file=sys.stderr)
        return 2
    if fv > SUPPORTED_SCHEMA:
        print(f"error: schema_version {fv} is newer than this script "
              f"supports ({SUPPORTED_SCHEMA}); update the script",
              file=sys.stderr)
        return 2

    fresh_is_sweep = "sweeps" in fresh
    if fresh_is_sweep != ("sweeps" in base):
        print("error: fresh and baseline are different formats "
              "(google-benchmark vs sweep export)", file=sys.stderr)
        return 2

    if fresh_is_sweep:
        return compare_sweeps(fresh, base, args.tolerance)
    return compare_benchmarks(fresh, base, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
