#!/usr/bin/env python3
"""The pactsim benchmark: build a Release pactbench and run one workload.

    python3 perfbench/run.py --workload bckron --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run it from anywhere inside a checkout of the repository. The first run
configures and builds perfbench/ (which builds the repository's own
libraries) into the directory named by CARGO_TARGET_DIR, or
.bench_build/ at the root of the checkout. Later runs reuse that build.

Each run is one pactbench process for one workload. Its last line of
standard output is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json, with --trace 1 the per-layer ones. This script checks
that the metric names and units are exactly those of BENCHMARK.json
before it relays the line. perfbench/README.md describes the workloads
and the metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("bckron", "coloc16", "silo-tpp-obs")
# Each pactbench process must end well within the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the pactbench target, Release only."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no pactsim sources at {ROOT}; nothing to benchmark")
    out = build_dir()
    steps = []
    cache = os.path.join(out, "CMakeCache.txt")
    configured = False
    if os.path.isfile(cache):
        with open(cache) as f:
            configured = "CMAKE_BUILD_TYPE:STRING=Release\n" in f.read()
    if not configured:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "pactbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "pactbench")


def bench_env():
    """The process environment with every PACT_* knob cleared, then
    PACT_JOBS=1: generation runs on one thread and the trace store is
    off, so set-up time is a cold, serial generation."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PACT_")}
    env["PACT_JOBS"] = "1"
    return env


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_pactbench(exe, workload, seed, seconds, trace, extra=()):
    """Run one pactbench process; return (stdout lines, result dict)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), *extra]
    if trace:
        cmd.append("--trace")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           env=bench_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: pactbench did not finish in {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: pactbench exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a JSON result")
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or got != want:
        fail(f"{workload}: result does not match BENCHMARK.json "
             f"(missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))})")
    return lines, result


def info(lines, key):
    for line in lines:
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[0] == "info" and parts[1] == key:
            return parts[2]
    return None


def self_test(exe):
    """Tiny-scale check of the benchmark itself: every metric of both
    modes is printed with its BENCHMARK.json unit, every run passes the
    correctness gate, and the traced run reproduces the untraced stat
    digest."""
    problems = []
    for w in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            lines, res = run_pactbench(exe, w, 7, 0.2, trace,
                                       ("--scale", "0.05"))
            runs[trace] = (lines, res)
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} trace={trace}: a run failed the gate")
        ok_frac = runs[0][1]["metrics"]["run_ok_frac"]["value"]
        if ok_frac != 1:
            problems.append(f"{w}: run_ok_frac is {ok_frac}")
        d0, d1 = info(runs[0][0], "digest"), info(runs[1][0], "digest")
        if not d0 or d0 != d1:
            problems.append(f"{w}: digests differ ({d0} vs {d1})")
        print(f"self-test {w}: digest {d0}, "
              f"{len(runs[0][1]['metrics'])} end-to-end and "
              f"{len(runs[1][1]['metrics'])} per-layer metrics")
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the tiny-scale self-test of the benchmark")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if args.self_test:
        return self_test(exe)
    lines, _ = run_pactbench(exe, args.workload, args.seed, args.seconds,
                             args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
