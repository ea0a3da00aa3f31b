#!/usr/bin/env python3
"""A/B timing of two perfbench binaries in alternating pinned pairs.

Runs PARENT_BIN and CHANGE_BIN (each a build of perfbench/perfbench.cc,
for example two checkouts' ``perfbench/build/perfbench``) on one
workload, one fresh single-threaded process at a time. Pair k runs both
binaries back to back on CPU k mod nproc; even pairs start with the
parent, odd pairs with the change, so neither side always runs first on
a warm CPU.

    python3 scripts/perfbench_pairs.py PARENT_BIN CHANGE_BIN \\
        --workload uncached_rw_1ch --seed 1 --pairs 10
    python3 scripts/perfbench_pairs.py BIN BIN --workload all \\
        --pairs 2 --short --trace  # self-check: one binary on both sides

For ``phase_s`` (the timed load phase), set-up (``build_s`` plus
``precondition_s``) and peak RSS (``ru_maxrss`` from ``os.wait4``, the
value ``perfbench/run.py`` reports as ``peak_rss_mb``) it prints each
side's median and quartiles, how many pairs the change won (lower wins;
ties count for neither), and the ratio of the medians (change /
parent). The simulated fields must repeat exactly in every process of
both sides; the script exits 1 when one differs, so a
change that claims to be a pure speed-up also proves it simulated the
same thing. With ``--trace`` each side also runs one traced process per
workload, and their stats dumps, span breakdown and span audit must be
equal too (and the audit must pass). Nothing here reads or writes the
perfbench directory: it only runs the binaries it is given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

WORKLOADS = ("cached_rw_4ch", "uncached_rw_1ch", "mixedload_250u")
# perfbench result fields that a seed fixes exactly.
EXACT_FIELDS = ("ops", "issued", "completed", "window_ps", "phase_ps",
                "events", "lat_p50_ps", "lat_p99_ps", "sim_kiops",
                "validation_failures", "hardware_clean")
# Fields of a traced record's "trace" object that a seed fixes exactly.
TRACE_FIELDS = ("stats_before", "stats_after", "breakdown",
                "span_audit_ok")
# A repetition takes seconds; one that runs this long is hung.
REP_TIMEOUT_S = 120


def run_one(binary, workload, seed, short, cpu, trace=False):
    """One pinned perfbench process; its JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if short:
        cmd.append("--short")
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"{binary} --workload {workload} exited with "
                           f"{code}")
    rec = json.loads(out.decode().strip().splitlines()[-1])
    rec["setup_s"] = rec["build_s"] + rec["precondition_s"]
    rec["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return rec


def quartiles(values):
    """(q1, median, q3) of @p values, interpolated between samples."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(name, parent, change, unit="s"):
    """Print one metric's medians, quartiles, wins and ratio."""
    p = [r[name] for r in parent]
    c = [r[name] for r in change]
    wins = sum(1 for a, b in zip(p, c) if b < a)
    pq = quartiles(p)
    cq = quartiles(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    print(f"  {name:11} parent {pq[1]:.6f} {unit} (q1 {pq[0]:.6f}, q3 "
          f"{pq[2]:.6f})  change {cq[1]:.6f} {unit} (q1 {cq[0]:.6f}, q3 "
          f"{cq[2]:.6f})  ratio {ratio:.3f}  change lower in "
          f"{wins}/{len(p)} pairs")


def exact_mismatches(records):
    """Fields of EXACT_FIELDS that differ between any two records."""
    ref = records[0]
    return sorted({f for r in records[1:] for f in EXACT_FIELDS
                   if r[f] != ref[f]})


def trace_mismatches(parent, change):
    """TRACE_FIELDS that differ between the sides' traced records, plus
    a note when a span audit failed."""
    bad = [f for f in TRACE_FIELDS
           if parent["trace"][f] != change["trace"][f]]
    if not (parent["trace"]["span_audit_ok"]
            and change["trace"]["span_audit_ok"]):
        bad.append("span audit failed")
    return bad


def compare(args, workload, cpus):
    parent, change = [], []
    for k in range(args.pairs):
        cpu = cpus[k % len(cpus)]
        order = [("parent", args.parent), ("change", args.change)]
        if k % 2:
            order.reverse()
        for side, binary in order:
            rec = run_one(binary, workload, args.seed, args.short, cpu)
            (parent if side == "parent" else change).append(rec)
    print(f"# {workload} seed={args.seed} pairs={args.pairs} "
          f"short={int(args.short)} cpus={len(cpus)}")
    summarize("phase_s", parent, change)
    summarize("setup_s", parent, change)
    summarize("peak_rss_mb", parent, change, "MB")
    traced = []
    if args.trace:
        cpu = cpus[args.pairs % len(cpus)]
        traced = [run_one(b, workload, args.seed, args.short, cpu, True)
                  for b in (args.parent, args.change)]
    bad = exact_mismatches(parent + change + traced)
    ref = parent[0]
    print("  exact      " + " ".join(f"{f}={ref[f]}" for f in EXACT_FIELDS)
          + ("  MISMATCH: " + ", ".join(bad) if bad else "  equal"))
    if traced:
        tbad = trace_mismatches(*traced)
        print("  traced     " + " ".join(TRACE_FIELDS)
              + ("  MISMATCH: " + ", ".join(tbad) if tbad else "  equal"))
        bad += tbad
    return not bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="perfbench binary of the parent")
    ap.add_argument("change", help="perfbench binary of the change")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--short", action="store_true",
                    help="perfbench's short windows (a smoke run)")
    ap.add_argument("--trace", action="store_true",
                    help="also run one traced process per side and "
                    "workload; its stats and span records must match")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for b in (args.parent, args.change):
        if not os.access(b, os.X_OK):
            ap.error(f"{b} is not an executable")

    cpus = sorted(os.sched_getaffinity(0))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        ok = all([compare(args, w, cpus) for w in names])
    except (RuntimeError, ValueError, KeyError) as e:
        print(f"perfbench_pairs: {e}", file=sys.stderr)
        return 1
    if not ok:
        print("perfbench_pairs: simulated results differ", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
