#!/usr/bin/env python3
"""Check a freshly run BENCH_<name>.json against its committed golden copy,
or check that a TRACE_<name>.json file is a Chrome trace.

Usage:

    python3 tools/bench_diff.py results/BENCH_fig5_resilience_outage.json \
        /tmp/out/BENCH_fig5_resilience_outage.json
    python3 tools/bench_diff.py --trace results/TRACE_fig3_backup_attach.json

Virtual-time rows are deterministic, so the two records must have equal
`rows` arrays and equal `seeds` lists, value for value. Rows pair by
(series, kind, x): a row only one record has prints one `removed row` or
`added row` line, and the shared rows must come in the same order. The
stamp fields (commit, dirty, threads) and the wall time
(wall_clock_seconds) describe the run, not the result, and are ignored. Exit status 0 when the records
match; 1, with one line per differing row, when they do not; 2 on a usage
error.

With --trace the file must be strict JSON (one value and nothing after it,
no NaN or Infinity) whose top level is an object with a `traceEvents` array,
each event an object carrying name, ph, ts, pid and tid. Exit status 0 when
it is; 1, with one `<path>: refused: <why>` line, when it is not.
"""
import json
import sys


def row_key(row):
    return (row.get("series"), row.get("kind"), row.get("x"))


def diff(golden, fresh):
    """Returns human-readable differences between two records' results.

    Rows pair by row_key, so a deleted or added series reports once as a
    removed or added row instead of shifting every later row. The rows the
    records share must still come in the same order.
    """
    out = []
    if golden.get("seeds") != fresh.get("seeds"):
        out.append(f"seeds: {golden.get('seeds')} != {fresh.get('seeds')}")
    old_rows = {row_key(row): row for row in golden["rows"]}
    new_rows = {row_key(row): row for row in fresh["rows"]}
    for name, record, rows in (("golden", golden, old_rows), ("fresh", fresh, new_rows)):
        if len(rows) != len(record["rows"]):
            out.append(f"{name}: repeated row keys")
    out += [f"removed row {key}" for key in old_rows if key not in new_rows]
    out += [f"added row {key}" for key in new_rows if key not in old_rows]
    shared = [key for key in old_rows if key in new_rows]
    if shared != [key for key in new_rows if key in old_rows]:
        out.append("shared rows come in a different order")
    for key in shared:
        old, new = old_rows[key], new_rows[key]
        fields = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        if fields:
            changes = ", ".join(f"{k} {old.get(k)} -> {new.get(k)}" for k in fields)
            out.append(f"row {key}: {changes}")
    return out


TRACE_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")


def trace_problem(text):
    """Returns why `text` is not a Chrome trace_event file, or None."""

    def refuse_constant(name):
        raise ValueError(f"{name} is not JSON")

    try:
        trace = json.loads(text, parse_constant=refuse_constant)
    except ValueError as error:  # JSONDecodeError and UnicodeDecodeError too
        return str(error)
    if not isinstance(trace, dict):
        return "top level is not an object"
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return 'no "traceEvents" array'
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            return f"trace event {index} is not an object"
        missing = [key for key in TRACE_EVENT_KEYS if key not in event]
        if missing:
            return f'trace event {index} missing "{missing[0]}"'
    return None


def check_trace(path):
    with open(path, "rb") as f:
        problem = trace_problem(f.read())
    if problem is not None:
        print(f"{path}: refused: {problem}")
        return 1
    print(f"{path}: trace ok")
    return 0


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--trace":
        return check_trace(sys.argv[2])
    if len(sys.argv) != 3 or sys.argv[1].startswith("--"):
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
