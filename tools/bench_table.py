#!/usr/bin/env python3
"""Print a committed BENCH_<name>.json as a markdown latency table.

Usage:

    python3 tools/bench_table.py results/BENCH_ablation_optimizations.json

One row per quantile/summary/box row in the record, in file order:
series | n | p50 / p90 / p99 (ms). The first line names the record's
commit, dirty flag and seed set, so a table pasted into the docs says what
produced it.
"""
import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        record = json.load(f)
    dirty = {True: ", dirty", False: "", None: ", dirty unknown"}[record.get("dirty")]
    seeds = ""
    if "seeds" in record:
        seeds = ", seeds " + " ".join(str(seed) for seed in record["seeds"])
    print(f"<!-- generated by tools/bench_table.py from {record['bench']} "
          f"@ {record['commit']}{dirty}{seeds} -->")
    print("| series | n | p50 / p90 / p99 (ms) |")
    print("|---|---|---|")
    for row in record["rows"]:
        if row["kind"] == "scalar":
            continue
        print(f"| {row['series']} | {row['n']} | "
              f"{row['p50']:.1f} / {row['p90']:.1f} / {row['p99']:.1f} |")


if __name__ == "__main__":
    main()
