#!/usr/bin/env python3
"""Compares two sets of dgc-bench result files against BENCHMARK.json.

    python3 bench/e2e/compare.py --benchmark BENCHMARK.json \
        --parent p1.json p2.json ... --change c1.json c2.json ...
    python3 bench/e2e/compare.py --self --benchmark BENCHMARK.json \
        --parent a1.json ... --change b1.json ...

Result files are the --out documents of dgc-bench (or run.py). Within each
workload the i-th parent file is paired with the i-th change file, so run
them as alternating pairs. For every workload and metric it prints each
side's median and quartiles, the change's win fraction and a verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ
              by more than the parent's interquartile range
  worse       the change's median is worse by more than the metric's bound
  unresolved  the parent's spread is wider than the bound (and not every
              change run beats every parent run), or it is worse by more
              than the bound but that spread is wider than the bound too
  unchanged   otherwise

Per-layer metrics have no bound and get no verdict. Exact model outputs
and sim_digest are compared seed by seed: any difference is reported as
"model changed". Exit status 1 when an end-to-end metric got worse or the
error rate (failed / attempted) rose. --self is the A/A check of two sets
from one commit: it fails when any end-to-end median moved, either way, by
more than the metric's bound, or on any model change.
"""
import argparse
import json
import statistics
import sys


def load(paths):
    """Results grouped by workload, in the order given."""
    groups = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        groups.setdefault(result["workload"], []).append(result)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    if bound is None:
        return wins, "-"
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    gap = (cm - pm) / abs(pm) if pm else 0.0
    worse_by = gap if direction == "lower" else -gap
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1 and
            better(cm, pm, direction)):
        return wins, "improved"
    if worse_by > bound:
        return wins, "worse" if spread <= bound else "unresolved"
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def by_seed(results, key):
    """{seed: set of values of key(result)} over a set of results."""
    seeds = {}
    for r in results:
        seeds.setdefault(r["seed"], set()).add(key(r))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="A/A check of two sets from one commit")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    parents, changes = load(args.parent), load(args.change)

    failed = False
    print("%-15s %-34s %14s %24s %14s %24s %6s  %s" % (
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]",
        "wins", "verdict"))
    for workload in sorted(set(parents) | set(changes)):
        ps, cs = parents.get(workload, []), changes.get(workload, [])
        if not ps or not cs:
            print("%-15s missing on one side" % workload)
            failed = True
            continue
        names = [n for n in specs
                 if all(n in r["metrics"] for r in ps + cs)]
        for name in names:
            spec = specs[name]
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            wins, v = verdict(pv, cv, spec["better"],
                              spec.get("bound") if name in e2e else None)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print("%-15s %-34s %14.6g [%10.6g, %10.6g] %14.6g [%10.6g, %10.6g]"
                  " %3d/%-2d  %s" % (workload, name, pm, p1, p3, cm, c1, c3,
                                     wins, min(len(pv), len(cv)), v))
            if v == "worse":
                failed = True
            if args.self_check and name in e2e and pm and \
                    abs(cm - pm) / abs(pm) > spec["bound"]:
                print("%-15s %-34s A/A medians differ by more than the bound"
                      % (workload, name))
                failed = True

        # Errors: failed operations against attempted ones.
        rate = [sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                for rs in (ps, cs)]
        print("%-15s %-34s %14.6g %24s %14.6g" % (workload, "error_rate",
                                                   rate[0], "", rate[1]))
        if rate[1] > rate[0] or not all(r["correct"] for r in cs):
            failed = True

        # Stat neutrality: digests and exact outputs, seed by seed.
        for label, key in (("sim_digest", lambda r: r["sim_digest"]),
                           ("exact", lambda r: json.dumps(r["exact"], sort_keys=True))):
            pd, cd = by_seed(ps, key), by_seed(cs, key)
            shared = sorted(set(pd) & set(cd))
            unstable = [s for s in shared if len(pd[s]) > 1 or len(cd[s]) > 1]
            changed = [s for s in shared if pd[s] != cd[s]]
            status = ("model changed (seeds %s)" % changed if changed else
                      "identical" if shared else "no common seed")
            if unstable:
                status += "; differs between runs of seeds %s" % unstable
            print("%-15s %-34s %s" % (workload, label, status))
            if unstable or (args.self_check and changed):
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
