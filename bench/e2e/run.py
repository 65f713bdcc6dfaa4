#!/usr/bin/env python3
"""Builds dgc-bench from source, then runs one workload or all of them.

    python3 bench/e2e/run.py --workload <name|all> --seed S --seconds T \
        --trace 0|1 [--out result.json] [--spans spans.json] [--smoke]

The build is a Release build of bench/e2e/CMakeLists.txt (which compiles the
libraries under src/) in $CARGO_TARGET_DIR/e2e, default .bench_build/e2e,
relative to the repository root. Build output goes to stderr. Every other
argument is passed to dgc-bench, whose last stdout line is the result JSON.

With --workload all each workload runs in a process of its own (so each
gets its own peak_rss_mib); --out P then writes P.<workload>.json, and the
last line combines the results, with metrics named <workload>.<metric>.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["launch-xsbench", "launch-rsbench", "sweep-fig6", "serve-mixed"]


def build():
    """Configures (once) and builds dgc-bench; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2e")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "dgc-bench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "dgc-bench")


def option(args, name):
    """Value following `name` in args, or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def run_all(exe, args):
    """Runs every workload in its own process; prints a combined last line."""
    per_workload = ("--workload", "--out", "--spans")
    base = [a for i, a in enumerate(args)
            if a not in per_workload and
            (i == 0 or args[i - 1] not in per_workload)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        cmd = [exe, "--workload", workload] + base
        for name in ("--out", "--spans"):
            if option(args, name):
                cmd += [name, "%s.%s.json" % (option(args, name), workload)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return code


def main():
    args = sys.argv[1:]
    exe = build()
    if exe is None:
        print("run.py: building dgc-bench failed", file=sys.stderr)
        return 3
    if option(args, "--workload") == "all":
        return run_all(exe, args)
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
