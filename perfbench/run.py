#!/usr/bin/env python3
"""Builds and runs the HeteSim benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --unit-tests

The first call configures and builds the library and the harness (Release)
under .bench_build/perfbench; later calls rebuild incrementally. The harness
writes its temporary stores, socket and trace files under .bench_out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the `end_to_end` metrics of BENCHMARK.json, with `--trace 1`
its `per_layer` metrics. The exit status is non-zero when the build fails,
a listed metric is missing, or an answer check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
HARNESS_TIMEOUT_S = 170
# Compiler and harness temporary files stay inside the checkout.
TMP_DIR = os.path.abspath(os.path.join(".bench_build", "tmp"))
ENV = dict(os.environ, TMPDIR=TMP_DIR)


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs `cmd` with its output on stderr; True when it exits 0."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode == 0


def build(target):
    os.makedirs(TMP_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])


def remove_leftover_dirs():
    """Removes temporary stores and sockets a failed harness left behind."""
    if os.path.isdir(OUT_DIR):
        for entry in os.listdir(OUT_DIR):
            path = os.path.join(OUT_DIR, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)


def metric_list(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--unit-tests", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.unit_tests:
        if not build("perfbench_stats_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_stats_test")], env=ENV).returncode
    if not args.workload:
        parser.error("--workload is required")

    wanted = metric_list(args.trace)
    if not build("perfbench_harness"):
        log("perfbench: build failed")
        return 1

    cmd = [os.path.join(BUILD_DIR, "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=ENV)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        remove_leftover_dirs()
        log("perfbench: the harness did not finish within %d s" % HARNESS_TIMEOUT_S)
        return 1
    remove_leftover_dirs()

    lines = out.rstrip("\n").split("\n") if out else []
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        log("perfbench: the harness printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            log("perfbench: metric %s missing or not in %s" % (spec["name"], spec["unit"]))
            return 1
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
