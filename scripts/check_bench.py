#!/usr/bin/env python3
"""Schema check for committed bench trajectory files (BENCH_*.json).

A trajectory file is one JSON document:

    {"schema": "bench_trajectory", "schema_version": 1, "entries": [
      {"label": "...", "timestamp": "...", "report": {...}},
      ...
    ]}

perf_smoke / svc_bench append one labelled entry per run, so the committed
files accumulate a per-PR performance history.  CI runs this over both the
committed files and the ones a fresh bench run just appended to, which also
proves append keeps the document well-formed.

Usage: check_bench.py [--compare] FILE [FILE...]

With --compare, the last two entries of each file are additionally diffed:
any derived metric that degrades by more than 2x (a *_speedup / *_rate that
halves, or a *_seconds that doubles) is reported as a non-fatal
"::warning::" annotation (GitHub Actions renders these on the run page).
Compare warnings never change the exit code — trajectories are measured on
whatever machine ran the bench, so a regression is a flag to look at, not a
gate.
"""

import json
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return 1


def flag(path, msg):
    """Non-fatal annotation (GitHub Actions ::warning:: syntax)."""
    print(f"::warning::{path}: {msg}")


FLEET_KEYS = ("joins", "leaves", "crashes", "duplicates")


def check_churn_report(path, where, report):
    """fig1_churn entries carry a machines-vs-time trajectory and fleet
    counters; both are committed artifacts, so their shape is part of the
    schema (times/counts must be equal-length non-empty step-series arrays)."""
    rc = 0
    derived = report.get("derived")
    if not isinstance(derived, dict):
        return fail(path, f"{where}.report.derived must be an object")
    series = derived.get("machines_vs_time")
    if not isinstance(series, dict):
        return fail(path, f"{where}.report.derived.machines_vs_time must be an object")
    times = series.get("times")
    counts = series.get("counts")
    if not isinstance(times, list) or not times:
        rc |= fail(path, f"{where}...machines_vs_time.times must be a non-empty array")
    if not isinstance(counts, list) or not counts:
        rc |= fail(path, f"{where}...machines_vs_time.counts must be a non-empty array")
    if isinstance(times, list) and isinstance(counts, list) and len(times) != len(counts):
        rc |= fail(path, f"{where}...machines_vs_time times/counts length mismatch "
                         f"({len(times)} vs {len(counts)})")
    if isinstance(times, list) and times != sorted(times):
        rc |= fail(path, f"{where}...machines_vs_time.times must be ascending")
    if not isinstance(series.get("end_time"), (int, float)):
        rc |= fail(path, f"{where}...machines_vs_time.end_time must be a number")
    fleet = derived.get("fleet")
    if not isinstance(fleet, dict):
        rc |= fail(path, f"{where}.report.derived.fleet must be an object")
    else:
        for key in FLEET_KEYS:
            value = fleet.get(key)
            if not isinstance(value, int) or value < 0:
                rc |= fail(path, f"{where}.report.derived.fleet.{key} must be a "
                                 f"non-negative integer")
    return rc


NET_DEPTH_KEYS = ("wall_seconds", "round_trip_rate", "dispatch_stall_seconds")


def check_net_report(path, where, report):
    """net_bench entries carry per-depth timings and the headline depth-4 /
    depth-1 throughput ratio; the pipelined transport's acceptance evidence
    lives here, so the shape is part of the schema."""
    rc = 0
    derived = report.get("derived")
    if not isinstance(derived, dict):
        return fail(path, f"{where}.report.derived must be an object")
    for depth in ("depth1", "depth4"):
        timing = derived.get(depth)
        if not isinstance(timing, dict):
            rc |= fail(path, f"{where}.report.derived.{depth} must be an object")
            continue
        for key in NET_DEPTH_KEYS:
            value = timing.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                rc |= fail(path, f"{where}.report.derived.{depth}.{key} must be a "
                                 f"non-negative number")
        trips = timing.get("round_trips")
        if not isinstance(trips, int) or trips <= 0:
            rc |= fail(path, f"{where}.report.derived.{depth}.round_trips must be a "
                             f"positive integer")
    speedup = derived.get("pipelined_speedup")
    if not isinstance(speedup, (int, float)) or isinstance(speedup, bool) or speedup <= 0:
        rc |= fail(path, f"{where}.report.derived.pipelined_speedup must be a "
                         f"positive number")
    return rc


MIRROR_KEYS = ("wide_seconds_per_step", "tall_seconds_per_step", "wide_over_tall")


def check_perf_smoke_report(path, where, report):
    """A perf_smoke mirror_pair object holds the banded-LU subsolve seconds
    per accepted step of G(2;L,0) and of its mirror G(2;0,L), and their
    ratio: with the band along each grid's short axis the two cost the same.
    Entries written before perf_smoke emitted it have none."""
    derived = report.get("derived")
    if not isinstance(derived, dict):
        return fail(path, f"{where}.report.derived must be an object")
    pair = derived.get("mirror_pair")
    if pair is None:
        return 0
    if not isinstance(pair, dict):
        return fail(path, f"{where}.report.derived.mirror_pair must be an object")
    rc = 0
    for key in ("wide_grid", "tall_grid"):
        if not isinstance(pair.get(key), str) or not pair.get(key):
            rc |= fail(path, f"{where}.report.derived.mirror_pair.{key} must be a "
                             f"non-empty string")
    for key in MIRROR_KEYS:
        value = pair.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            rc |= fail(path, f"{where}.report.derived.mirror_pair.{key} must be a "
                             f"positive number")
    return rc


def numeric_leaves(node, prefix=""):
    """Dotted-path -> value for numeric leaves of nested dicts.  Arrays are
    skipped: their elements are keyed by position, and two entries with
    different configs (levels, grids) would misalign."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{prefix}.{key}" if prefix else key
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out[where] = float(value)
            elif isinstance(value, dict):
                out.update(numeric_leaves(value, where))
    return out


def compare_last_two(path, entries):
    """Warns (never fails) when a derived metric degrades >2x between the
    last two entries.  Direction comes from the metric name: *_speedup and
    *_rate are higher-is-better, *_seconds lower-is-better; anything else
    is not compared (counts, iteration totals etc. have no fixed polarity)."""
    if len(entries) < 2:
        return
    prev, last = entries[-2], entries[-1]
    if not (isinstance(prev, dict) and isinstance(last, dict)):
        return
    before = numeric_leaves((prev.get("report") or {}).get("derived") or {})
    after = numeric_leaves((last.get("report") or {}).get("derived") or {})
    for metric in sorted(before.keys() & after.keys()):
        old, new = before[metric], after[metric]
        leaf = metric.rsplit(".", 1)[-1]
        if leaf.endswith("speedup") or leaf.endswith("rate"):
            if old > 0 and new < old / 2:
                flag(path, f"{metric} degraded >2x between '{prev.get('label')}' and "
                           f"'{last.get('label')}': {old:.4g} -> {new:.4g}")
        elif leaf.endswith("seconds"):
            if old > 0 and new > old * 2:
                flag(path, f"{metric} degraded >2x between '{prev.get('label')}' and "
                           f"'{last.get('label')}': {old:.4g}s -> {new:.4g}s")


def check_file(path, compare=False):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    if doc.get("schema") != "bench_trajectory":
        return fail(path, f"schema is {doc.get('schema')!r}, want 'bench_trajectory'")
    if doc.get("schema_version") != 1:
        return fail(path, f"schema_version is {doc.get('schema_version')!r}, want 1")

    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        return fail(path, "entries must be a non-empty array")

    rc = 0
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            rc |= fail(path, f"{where} is not an object")
            continue
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            rc |= fail(path, f"{where}.label must be a non-empty string")
        timestamp = entry.get("timestamp")
        if not isinstance(timestamp, str):
            rc |= fail(path, f"{where}.timestamp must be a string")
        elif not timestamp:
            # The legacy-migration entry predates timestamps; everything else
            # must say when it was measured (bench_trajectory.hpp refuses
            # empty timestamps at append time, so only old files hit this).
            if label == "pre-trajectory":
                flag(path, f"{where} ('pre-trajectory') has an empty timestamp "
                           f"(accepted: legacy migration entry)")
            else:
                rc |= fail(path, f"{where}.timestamp must be non-empty")
        report = entry.get("report")
        if not isinstance(report, dict) or not report:
            rc |= fail(path, f"{where}.report must be a non-empty object")
        elif report.get("tool") == "fig1_churn":
            rc |= check_churn_report(path, where, report)
        elif report.get("tool") == "net_bench":
            rc |= check_net_report(path, where, report)
        elif report.get("tool") == "perf_smoke":
            rc |= check_perf_smoke_report(path, where, report)
    if rc == 0:
        labels = ", ".join(e["label"] for e in entries)
        print(f"{path}: ok ({len(entries)} entries: {labels})")
    if compare and rc == 0:
        compare_last_two(path, entries)
    return rc


def main(argv):
    args = argv[1:]
    compare = False
    if args and args[0] == "--compare":
        compare = True
        args = args[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rc = 0
    for path in args:
        rc |= check_file(path, compare=compare)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
