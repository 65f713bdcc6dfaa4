#!/usr/bin/env python3
"""Gate a google-benchmark run against the checked-in BENCH_sim_speed.json.

Usage:
    check_bench.py BASELINE_JSON RESULT_JSON [--key release_lto]
                   [--tolerance PCT] [--benchmark NAME]
    check_bench.py BASELINE_JSON RESULT_JSON --key amgmk_release_lto \
        --benchmark BM_EnsembleLaunchAmgmk

Every gate log echoes the baseline's `capture_host_cores`.

BASELINE_JSON is the repo's BENCH_sim_speed.json (schema dgc-bench-v1).
RESULT_JSON is `micro_benchmarks --benchmark_format=json` output; aggregate
entries (--benchmark_report_aggregates_only) are preferred — the `_median`
rows are used when present, otherwise the plain per-repetition rows.

A point fails when its measured time is out of tolerance in EITHER
direction (the baseline's `tolerance_pct` unless overridden): slower is a
regression, and faster means the committed baseline is stale and must be
re-pinned — a drifting baseline silently widens the window a real
regression can hide in. Exit code is 1 if any point is out of tolerance,
else 0. Pass --allow-faster to accept improvements without failing (e.g.
on a one-off machine faster than the pinned reference).
"""

import argparse
import json
import sys


def load_results(path, bench_name):
    """Returns {instance_count: time_ms} from google-benchmark JSON."""
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("benchmarks", [])
    medians = {}
    plain = {}
    for row in rows:
        name = row.get("name", "")
        if not name.startswith(bench_name + "/"):
            continue
        time_ms = float(row["real_time"])
        unit = row.get("time_unit", "ms")
        if unit == "ns":
            time_ms /= 1e6
        elif unit == "us":
            time_ms /= 1e3
        if name.endswith("_median"):
            arg = name[len(bench_name) + 1:].split("_")[0]
            medians[arg] = time_ms
        elif "_" not in name[len(bench_name) + 1:]:
            arg = name[len(bench_name) + 1:]
            # Plain rows repeat per repetition; keep the minimum (least
            # scheduler noise) when no aggregate rows exist.
            plain[arg] = min(plain.get(arg, float("inf")), time_ms)
    return medians if medians else plain


def describe_capture_host(base_doc):
    """One line documenting the baseline capture host's core count.

    Launch times depend on the machine that produced them; echoing the
    count makes every gate log self-documenting instead of relying on the
    `note`.
    """
    cores = base_doc.get("capture_host_cores")
    if cores is None:
        return "baseline capture host cores: unrecorded (pre-v10 baseline)"
    return f"baseline captured on a {int(cores)}-core host"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("results")
    ap.add_argument("--key", default="release_lto",
                    help="baseline table to gate against (default: %(default)s)")
    ap.add_argument("--benchmark", default=None,
                    help="benchmark series name to gate (default: the "
                         "baseline's `benchmark` field; needed for the "
                         "secondary series, e.g. BM_EnsembleLaunchAmgmk "
                         "with --key amgmk_release_lto)")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="allowed deviation in percent, either direction "
                         "(default: baseline tolerance_pct)")
    ap.add_argument("--allow-faster", action="store_true",
                    help="report out-of-tolerance improvements without "
                         "failing (default: fail so the baseline is "
                         "re-pinned)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base_doc = json.load(f)
    if base_doc.get("schema") != "dgc-bench-v1":
        sys.exit(f"error: {args.baseline} is not a dgc-bench-v1 document")
    bench_name = args.benchmark or base_doc["benchmark"]
    baseline = base_doc[args.key]
    tol = args.tolerance if args.tolerance is not None \
        else float(base_doc.get("tolerance_pct", 15))

    results = load_results(args.results, bench_name)
    if not results:
        sys.exit(f"error: no '{bench_name}' rows in {args.results}")

    regressed = []
    stale = []
    print(f"{bench_name} vs {args.baseline}:{args.key} "
          f"(tolerance {tol:.0f}%, either direction; "
          f"{describe_capture_host(base_doc)})")
    for arg in sorted(baseline, key=int):
        base = float(baseline[arg])
        if arg not in results:
            print(f"  /{arg}: MISSING from results")
            regressed.append(arg)
            continue
        got = results[arg]
        delta = (got - base) / base * 100.0
        verdict = "ok"
        if delta > tol:
            verdict = "REGRESSION"
            regressed.append(arg)
        elif delta < -tol:
            if args.allow_faster:
                verdict = "faster (allowed by --allow-faster)"
            else:
                verdict = "STALE BASELINE (faster than pinned)"
                stale.append(arg)
        print(f"  /{arg}: baseline={base:.2f}ms measured={got:.2f}ms "
              f"({delta:+.1f}%) {verdict}")

    if regressed:
        print(f"FAIL: {len(regressed)} point(s) regressed beyond "
              f"{tol:.0f}%: {', '.join('/' + a for a in regressed)}")
    if stale:
        print(f"FAIL: {len(stale)} point(s) faster than baseline beyond "
              f"{tol:.0f}%: {', '.join('/' + a for a in stale)} — the "
              f"committed baseline is stale; re-pin {args.baseline} from "
              f"this run (or pass --allow-faster for a one-off machine)")
    if regressed or stale:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
