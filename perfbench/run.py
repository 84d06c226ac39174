#!/usr/bin/env python3
"""psync benchmark runner.

Builds the psync_perf harness (perfbench/CMakeLists.txt pulls in the
repository's own CMake project, so the measured libraries get the
repo's default flags) into .bench_build/ under the repository root,
runs one workload, checks the harness's verdict and prints the
result.

    python3 perfbench/run.py --workload paper-sweep --seed 1 \
        --seconds 25 --trace 0

Workloads: paper-sweep, scale-1024, serve-open-loop (the three
BENCHMARK.json lists), fuzz-campaign (runnable, but not listed: see
NOTES.md), or `all` to run the four in turn. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer
metrics.

Standard output: the harness's report (one line per measured
metric, then a `provenance` line), and as the last line one JSON
object with exactly the keys correct, attempted, failed and
metrics. Build logs go to standard error. Any build or harness
failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["paper-sweep", "scale-1024", "serve-open-loop", "fuzz-campaign"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "psync_perf")
# A run must end within 180 s; keep a margin for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD],
             ["cmake", "--build", BUILD, "--target", "psync_perf", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def run_workload(spec, workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s: harness exited with code %d" % (workload, proc.returncode))
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("%s: harness printed no report" % workload)

    measured = report["metrics"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail("%s: end-to-end metric %s not measured"
                     % (workload, m["name"]))
            # A layer this workload never enters reads zero.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s: metric %s has unit %s, BENCHMARK.json says %s"
                 % (workload, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(report["provenance"]))
    for p in report["problems"]:
        print("FAILED CHECK: " + p)
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")

    build()
    spec = load_spec()
    if args.workload != "all":
        result = run_workload(spec, args.workload, args.seed, args.seconds,
                              args.trace == 1)
        print(json.dumps(result))
        return

    results = {}
    for w in WORKLOADS:
        print("== " + w)
        results[w] = run_workload(spec, w, args.seed, args.seconds,
                                  args.trace == 1)
        print(w + " " + json.dumps(results[w]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w + "/" + k: v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
