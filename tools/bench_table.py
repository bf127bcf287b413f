#!/usr/bin/env python3
"""Print a committed BENCH_<name>.json as a markdown latency table.

Usage:

    python3 tools/bench_table.py results/BENCH_ablation_optimizations.json

One row per quantile/summary/box row in the record, in file order:
series | n | p50 / p90 / p99 (ms), with an x column after the series when
a series repeats over several x points (a load sweep). The first line
names the record's commit, dirty flag and seed set, so a table pasted
into the docs says what produced it.
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
    rows = [row for row in record["rows"] if row["kind"] != "scalar"]
    # A sweep repeats each series over its x points, which need a column.
    sweep = len({row["series"] for row in rows}) < len(rows)
    x = " x |" if sweep else ""
    print(f"| series |{x} n | p50 / p90 / p99 (ms) |")
    print("|---|" + ("---|" if sweep else "") + "---|---|")
    for row in rows:
        x = f" {row['x']:g} |" if sweep else ""
        print(f"| {row['series']} |{x} {row['n']} | "
              f"{row['p50']:.1f} / {row['p90']:.1f} / {row['p99']:.1f} |")


if __name__ == "__main__":
    main()
