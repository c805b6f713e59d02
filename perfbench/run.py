#!/usr/bin/env python3
"""LOTS benchmark entry point.

    python3 perfbench/run.py --workload kv_zipf|sor|largespace \
        --seed N --seconds S --trace 0|1

Builds the workload binary from the repository's sources (CMake, into
.bench_build/perfbench), runs the workload in a fresh process, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice, untraced and then traced, and reports the per-layer
metrics of the traced run, the untraced run's exact p99 latencies
(e2e.read_p99_us, e2e.write_p99_us) and trace.overhead_pct (how much
slower the traced run's ops_per_s was). The traced run's spans are kept in
.bench_build/perfbench/traces/. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_workload")
WORKLOADS = ("kv_zipf", "sor", "largespace")
BUDGET_S = 170  # after the build, a run must end within 180 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def run_workload(args, trace, deadline):
    """Runs the workload binary once; returns its result object."""
    # A fixed relative work directory, so every run makes byte-identical
    # path allocations wherever the checkout lives (NOTES.md, noise
    # source 5).
    work = os.path.join(".bench_build", "perfbench", "work")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, work))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
        log(f"{args.workload} did not finish in time")
        sys.exit(3)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        spans = os.path.join(ROOT, work, f"{args.workload}.spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(traces, f"{args.workload}.spans.jsonl"))
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload} exited {proc.returncode} without a result")
        sys.exit(1)
    for failure in result["failures"]:
        log(f"{args.workload}: {failure}")
    return result


def pick(metrics, specs, run):
    """The metrics named in `specs`, in BENCHMARK.json's order."""
    out = {}
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            log(f"{run} run did not report {spec['name']} in {spec['unit']}")
            sys.exit(1)
        out[spec["name"]] = m
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    deadline = time.monotonic() + BUDGET_S

    base = run_workload(args, 0, deadline)
    e2e = pick(base["metrics"], spec["end_to_end"], "untraced")
    zero = [name for name, m in e2e.items() if not m["value"] > 0]
    if zero:
        log("end-to-end metrics read 0: " + ", ".join(zero))
        sys.exit(1)
    runs = [base]
    if args.trace:
        traced = run_workload(args, 1, deadline)
        runs.append(traced)
        layers = dict(traced["layers"])
        # The exact p99s, from the untraced run: end-to-end tails that
        # track the host's steal time too closely to carry a bound.
        for name in ("read_p99_us", "write_p99_us"):
            layers["e2e." + name] = base["metrics"][name]
        layers["trace.overhead_pct"] = {
            "value": 100.0 * (base["metrics"]["ops_per_s"]["value"] /
                              traced["metrics"]["ops_per_s"]["value"] - 1.0),
            "unit": "%"}
        metrics = pick(layers, spec["per_layer"], "traced")
    else:
        metrics = e2e

    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
