#!/usr/bin/env python3
"""Builds and runs the XAR benchmark for one workload.

    python3 perfbench/run.py --workload serve_look|serve_book|city_sim \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds the benchmark
package (perfbench/CMakeLists.txt, which compiles ../src unmodified) into
.bench_build/, runs the benchmark's own logic tests, then runs one
measurement. Build output goes to .bench_build/build.log; stdout carries the
run record (nproc, build type, source revision, seed), the benchmark's
report, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. Any failure -- build, logic test or a
correctness gate -- exits non-zero without printing that object.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("serve_look", "serve_book", "city_sim")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "a") as log:
        steps = [["cmake", "-S", HERE, "-B", CMAKE_DIR,
                  "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                 ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                  "xar_perfbench", "perfbench_logic_test"]]
        for step in steps:
            if run_logged(step, log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git " + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256 " + digest.hexdigest()[:16]


def check_result(line, trace):
    """The last line must be the result object, with exactly the metrics
    BENCHMARK.json lists for this kind of run, each with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be between 1 and 600")

    build()
    tests = subprocess.run(
        [os.path.join(CMAKE_DIR, "perfbench_logic_test"), "--gtest_brief=1"],
        capture_output=True, text=True)
    if tests.returncode != 0:
        sys.stderr.write(tests.stdout + tests.stderr)
        fail("benchmark logic tests failed")

    print("run: nproc %d, build %s, %s, workload %s, seed %d, seconds %d, "
          "trace %d" % (os.cpu_count() or 0, BUILD_TYPE, source_revision(),
                        args.workload, args.seed, args.seconds, args.trace),
          flush=True)
    cmd = [os.path.join(CMAKE_DIR, "xar_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.csv" % (args.workload, args.seed))]
    bench = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(bench.stderr)
    lines = bench.stdout.rstrip("\n").splitlines()
    if bench.returncode != 0 or not lines:
        sys.stdout.write(bench.stdout)
        fail("benchmark exited with %d" % bench.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
