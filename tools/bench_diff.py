#!/usr/bin/env python3
"""Check a freshly run BENCH_<name>.json against its committed golden copy.

Usage:

    python3 tools/bench_diff.py results/BENCH_fig5_resilience_outage.json \
        /tmp/out/BENCH_fig5_resilience_outage.json

Virtual-time rows are deterministic, so the two records must have equal
`rows` arrays and equal `seeds` lists, value for value. The stamp fields
(commit, dirty, threads) and the wall time (wall_clock_seconds) describe
the run, not the result, and are ignored. Exit status 0 when the records
match; 1, with one line per differing row, when they do not; 2 on a usage
error.
"""
import json
import sys


def row_key(row):
    return (row.get("series"), row.get("kind"), row.get("x"))


def diff(golden, fresh):
    """Returns human-readable differences between two records' results."""
    out = []
    if golden.get("seeds") != fresh.get("seeds"):
        out.append(f"seeds: {golden.get('seeds')} != {fresh.get('seeds')}")
    old_rows, new_rows = golden["rows"], fresh["rows"]
    for i in range(max(len(old_rows), len(new_rows))):
        old = old_rows[i] if i < len(old_rows) else None
        new = new_rows[i] if i < len(new_rows) else None
        if old == new:
            continue
        if old is None or new is None or row_key(old) != row_key(new):
            out.append(f"row {i}: {old and row_key(old)} != {new and row_key(new)}")
            continue
        fields = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        changes = ", ".join(f"{k} {old.get(k)} -> {new.get(k)}" for k in fields)
        out.append(f"row {i} {row_key(old)}: {changes}")
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in sys.argv[1:]:
        with open(path) as f:
            records.append(json.load(f))
    differences = diff(*records)
    name = records[0].get("bench", sys.argv[1])
    for line in differences:
        print(f"{name}: {line}")
    if differences:
        return 1
    print(f"{name}: {len(records[0]['rows'])} rows match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
