#!/usr/bin/env python3
"""Run fedbench on two commits in alternating pairs and write the comparison.

Usage, from the repository root:

    python3 tools/pairs.py --base <commit> --change <commit> [--pairs 10]
        [--seconds 10] [--workloads backup_steady home_online churn]
        [--scratch <dir>] [--out results/BENCH_fedbench_pairs.json]
        [--claim <workload>:<metric> ...]

Each commit is exported with `git archive` into its own directory under
--scratch (a new temporary directory by default), and fedbench is built
there once, as fedbench/run.py builds it. Then, per workload, pair i runs
both trees on seed i, one run at a time: odd pairs run the base first, even
pairs the change first, so neither side always runs on a warmer machine.

The output holds both commits and their git tree ids, every end-to-end
metric BENCHMARK.json names for every run, and per workload and metric the
median and interquartile range of each side, the pairs the change won (and
tied), and whether the change's median stayed within the metric's bound.

Each --claim names a gain the change claims. It holds, by the choosing-
metrics rule for a small sandbox, when the change wins at least nine tenths
of the pairs (a tie counts for neither side) and its median is better than
the base's by more than the base's interquartile range. The verdicts are
printed and recorded in the output.

Progress goes to stderr. The exit code is non-zero when a build or a run
fails, when a metric's median broke its bound on any workload, or when a
claim does not hold.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = str(min(4, os.cpu_count() or 1))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(commit, scratch):
    """Extracts `commit` into scratch/<full hash> and builds fedbench there."""
    tree = os.path.join(scratch, commit)
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, "git archive")
    build = os.path.join(tree, ".bench_build", "fedbench")  # where fedbench/run.py builds
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(tree, "fedbench"), "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build, "-j", JOBS], check=True, stdout=sys.stderr)
    return tree


def run(tree, workload, seed, seconds):
    """One fedbench run: {metric: value} of its JSON result line."""
    out = subprocess.run([sys.executable, os.path.join(tree, "fedbench", "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"fedbench {workload} seed {seed} in {tree} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values


def spread(values):
    """Median and interquartile range (inclusive quartiles)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def summarize(pairs, metric):
    """The per-metric comparison of one workload's pairs."""
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    base = [p["base"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    base_median, base_iqr = spread(base)
    change_median, change_iqr = spread(change)
    won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    tied = sum(c == b for b, c in zip(base, change))
    limit = base_median * (1 + bound) if lower else base_median * (1 - bound)
    return {
        "better": metric["better"],
        "bound": bound,
        "base_median": base_median,
        "base_iqr": base_iqr,
        "change_median": change_median,
        "change_iqr": change_iqr,
        "change_over_base": change_median / base_median if base_median else None,
        "pairs_won": won,
        "pairs_tied": tied,
        "bound_held": change_median <= limit if lower else change_median >= limit,
    }


def judge(claim, summary, pairs):
    """The verdict on one claimed gain, from its metric's summary."""
    lower = summary["better"] == "lower"
    gap = (summary["base_median"] - summary["change_median"] if lower
           else summary["change_median"] - summary["base_median"])
    won_enough = summary["pairs_won"] * 10 >= 9 * pairs
    return {
        "claim": claim,
        "pairs_won": summary["pairs_won"],
        "pairs": pairs,
        "median_gap": gap,
        "base_iqr": summary["base_iqr"],
        "holds": won_enough and gap > summary["base_iqr"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--change", required=True, help="the commit under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--scratch", help="export directory (default: a new temporary one)")
    parser.add_argument("--out", default=os.path.join(ROOT, "results",
                                                      "BENCH_fedbench_pairs.json"))
    parser.add_argument("--claim", action="append", default=[],
                        help="a claimed gain, <workload>:<metric> (repeatable)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        if workload not in workloads or metric not in metrics:
            parser.error(f"--claim {claim}: not a <workload>:<metric> this run measures")
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in (("base", args.base), ("change", args.change))}
    scratch = args.scratch or tempfile.mkdtemp(prefix="dauth-pairs-")
    os.makedirs(scratch, exist_ok=True)
    try:
        trees = {side: export(commit, scratch) for side, commit in commits.items()}
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"pairs: export or build failed: {error}", file=sys.stderr)
        return 1

    record = {
        "bench": "fedbench_pairs",
        "commits": {side: {"commit": c, "tree": git("rev-parse", f"{c}^{{tree}}")}
                    for side, c in commits.items()},
        "seconds": seconds,
        "pairs_per_workload": args.pairs,
        "order": "odd pairs run the base first, even pairs the change; pair i on seed i",
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for i in range(1, args.pairs + 1):
            order = ["base", "change"] if i % 2 == 1 else ["change", "base"]
            pair = {"seed": i, "first": order[0]}
            try:
                for side in order:
                    pair[side] = run(trees[side], workload, i, seconds)
            except RuntimeError as error:
                print(f"pairs: {error}", file=sys.stderr)
                return 1
            print(f"pairs: {workload} seed {i} done", file=sys.stderr)
            pairs.append(pair)
        record["workloads"][workload] = {
            "pairs": [{"seed": p["seed"], "first": p["first"],
                       **{side: {m["name"]: p[side][m["name"]]
                                 for m in benchmark["end_to_end"]}
                          for side in ("base", "change")},
                       "failed": {side: p[side]["failed"] for side in ("base", "change")}}
                      for p in pairs],
            "metrics": {m["name"]: summarize(pairs, m) for m in benchmark["end_to_end"]},
        }

    broken = [f"{workload}:{name}" for workload, w in record["workloads"].items()
              for name, m in w["metrics"].items() if not m["bound_held"]]
    record["bounds_broken"] = broken
    record["claims"] = []
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        verdict = judge(claim, record["workloads"][workload]["metrics"][metric], args.pairs)
        record["claims"].append(verdict)
        print(f"claim {claim}: {'holds' if verdict['holds'] else 'does not hold'} "
              f"(won {verdict['pairs_won']}/{args.pairs}, median gap {verdict['median_gap']:.4g}, "
              f"base IQR {verdict['base_iqr']:.4g})")
    for name in broken:
        print(f"bound broken: {name}")

    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"pairs: wrote {args.out}", file=sys.stderr)
    return 1 if broken or not all(v["holds"] for v in record["claims"]) else 0


if __name__ == "__main__":
    sys.exit(main())
