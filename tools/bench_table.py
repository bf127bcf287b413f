#!/usr/bin/env python3
"""Print a committed BENCH_<name>.json as a markdown table.

Usage:

    python3 tools/bench_table.py results/BENCH_ablation_optimizations.json

A record with latency rows (quantile/summary/box) prints one row per
latency row, in file order: series | n | p50 / p90 / p99 (ms), with an x
column after the series when a series repeats over several x points (a
load sweep). A record with only scalar rows (a google-benchmark micro
bench) prints one row per benchmark: benchmark | ns/op | baseline ns |
speed-up, where ns/op is the real time per iteration and the last two
columns are blank for a benchmark without a baseline. The first line names
the record's commit, dirty flag and seed set (omitted when empty), so a
table pasted into the docs says what produced it.
"""
import json
import sys


def latency_table(rows):
    # A sweep repeats each series over its x points, which need a column.
    sweep = len({row["series"] for row in rows}) < len(rows)
    x = " x |" if sweep else ""
    print(f"| series |{x} n | p50 / p90 / p99 (ms) |")
    print("|---|" + ("---|" if sweep else "") + "---|---|")
    for row in rows:
        x = f" {row['x']:g} |" if sweep else ""
        print(f"| {row['series']} |{x} {row['n']} | "
              f"{row['p50']:.1f} / {row['p90']:.1f} / {row['p99']:.1f} |")


def scalar_table(rows):
    # Scalar series are "<benchmark>:<field>"; group the fields by benchmark
    # in file order.
    benchmarks = {}
    for row in rows:
        name, _, field = row["series"].rpartition(":")
        benchmarks.setdefault(name, {})[field] = row["value"]
    print("| benchmark | ns/op | baseline ns | speed-up |")
    print("|---|---|---|---|")
    for name, fields in benchmarks.items():
        baseline = f"{fields['baseline_ns']:,.0f}" if "baseline_ns" in fields else ""
        speedup = f"{fields['speedup']:.2f}x" if "speedup" in fields else ""
        print(f"| {name} | {fields['real_ns']:,.0f} | {baseline} | {speedup} |")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        record = json.load(f)
    dirty = {True: ", dirty", False: "", None: ", dirty unknown"}[record.get("dirty")]
    seeds = ""
    if record.get("seeds"):
        seeds = ", seeds " + " ".join(str(seed) for seed in record["seeds"])
    print(f"<!-- generated by tools/bench_table.py from {record['bench']} "
          f"@ {record['commit']}{dirty}{seeds} -->")
    rows = [row for row in record["rows"] if row["kind"] != "scalar"]
    if rows:
        latency_table(rows)
    else:
        scalar_table(record["rows"])


if __name__ == "__main__":
    main()
