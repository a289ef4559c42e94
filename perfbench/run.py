#!/usr/bin/env python3
"""Builds and runs the frechet_motif benchmark (one workload per call).

    python3 perfbench/run.py --workload batch_motif --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout. The first call configures and
builds the library and the `fmbench` driver with CMake (Release) under
$CARGO_TARGET_DIR, or `.bench_build` when that is unset; later calls
only rebuild what changed. The driver's output is passed through: its
last stdout line is the JSON result. `--selftest` builds and runs the
harness tests instead. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_motif", "fleet_replay", "serve_live"]
RUN_TIMEOUT_S = 175


def parse_args():
    p = argparse.ArgumentParser(
        description="Build and run one workload of the frechet_motif benchmark.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="input seed (the same seed gives the same inputs)")
    p.add_argument("--seconds", type=int, default=10,
                   help="measurement time of the run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the harness tests, then exit")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(bdir):
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no library sources next to perfbench/ (expected CMakeLists.txt "
            "at the checkout root)")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "fmbench",
                  "fmbench_harness_test"])
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def selftest(bdir):
    """Harness tests, plus BENCHMARK.json against the driver's tables."""
    rc = subprocess.run([os.path.join(bdir, "fmbench_harness_test")]).returncode
    listed = json.loads(subprocess.run(
        [os.path.join(bdir, "fmbench"), "--list-metrics"],
        capture_output=True, text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in listed[key]]
        have = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if want != have:
            log("BENCHMARK.json %s does not match fmbench's table" % key)
            rc = rc or 1
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        log("BENCHMARK.json workloads do not match run.py")
        rc = rc or 1
    if rc == 0:
        print("selftest: harness tests and BENCHMARK.json tables agree")
    return rc


def main():
    args = parse_args()
    bdir = build_dir()
    if not build(bdir):
        return 2
    if args.selftest:
        return selftest(bdir)
    work = os.path.join(os.path.dirname(bdir), "runs")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "fmbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work,
           "--git", git_describe()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("the run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 4


if __name__ == "__main__":
    sys.exit(main())
