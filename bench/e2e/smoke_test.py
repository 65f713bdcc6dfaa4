#!/usr/bin/env python3
"""Smoke test of dgc-bench at --smoke sizes (the ctest bench_e2e_smoke).

    python3 smoke_test.py <dgc-bench> <BENCHMARK.json> <work-dir>

Every workload runs twice with seed 1, once with seed 2 and once traced.
Checks: every BENCHMARK.json metric is present with its unit; exact metrics
and sim_digest repeat across the seed-1 pair; the digest changes with
seed 2, so the seed reaches the inputs; nothing failed; the span file
parses and every child span lies inside its parent.
"""
import json
import os
import subprocess
import sys

WORKLOADS = ["launch-xsbench", "launch-rsbench", "sweep-fig6", "serve-mixed"]


def run(exe, workdir, workload, seed, trace, tag):
    out = os.path.join(workdir, "%s.%s.json" % (workload, tag))
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--smoke",
           "--trace", str(trace), "--out", out]
    if trace:
        cmd += ["--spans", os.path.join(workdir, "%s.spans.json" % workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                     proc.returncode,
                                                     proc.stdout))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as f:
        result = json.load(f)
    assert last["metrics"] == result["metrics"], "stdout and --out disagree"
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, \
        "%s seed %d: %s" % (workload, seed, proc.stdout)
    return result


def check_units(result, specs, what):
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    assert got == want, "%s %s metrics differ from BENCHMARK.json: %s vs %s" % (
        result["workload"], what, sorted(set(got) ^ set(want)) or got, want)


def check_spans(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    assert spans, "no spans recorded"
    for s in spans:
        assert s["start_ns"] <= s["end_ns"], "span %d ends before it starts" % s["id"]
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"], \
                "span %d (%s) is not inside its parent %d (%s)" % (
                    s["id"], s["name"], p["id"], p["name"])


def main():
    exe, benchmark, workdir = sys.argv[1:4]
    os.makedirs(workdir, exist_ok=True)
    with open(benchmark) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    assert names == WORKLOADS, "BENCHMARK.json workloads: %s" % names
    for workload in WORKLOADS:
        a = run(exe, workdir, workload, 1, 0, "1a")
        b = run(exe, workdir, workload, 1, 0, "1b")
        c = run(exe, workdir, workload, 2, 0, "2")
        t = run(exe, workdir, workload, 1, 1, "traced")
        check_units(a, bench["end_to_end"], "end-to-end")
        check_units(t, bench["per_layer"], "per-layer")
        assert a["exact"] and a["exact"] == b["exact"], \
            "%s: exact metrics differ across a seed-1 pair" % workload
        assert a["sim_digest"] == b["sim_digest"], \
            "%s: sim_digest differs across a seed-1 pair" % workload
        assert a["sim_digest"] != c["sim_digest"], \
            "%s: seed 2 did not change sim_digest" % workload
        for key in ("workload", "seed", "nproc", "host_threads", "build_type",
                    "compiler"):
            assert key in a, "result lacks %s" % key
        check_spans(os.path.join(workdir, "%s.spans.json" % workload))
        print("%s: ok (digest %s, seed 2 %s)" % (workload, a["sim_digest"],
                                                 c["sim_digest"]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("bench_e2e_smoke FAILED: %s" % e)
        sys.exit(1)
