#!/usr/bin/env python3
"""ALERT end-to-end benchmark: one command for the three runtimes.

    python3 perfbench/run.py --workload embedded_loop|alertd_churn|sweep_socket \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (and, through it, the program
under test from ../src) into $CARGO_TARGET_DIR or .bench_build, runs the
benchmark's self-tests, then runs the workload.  Human-readable lines start with
'#'; the last line of stdout is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("embedded_loop", "alertd_churn", "sweep_socket")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures once, then builds incrementally; all output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest"]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, when the file is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    # The program under test is built from source next to this directory.
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        fail(f"no ALERT source tree at {ROOT}: perfbench builds the program from ../src")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=60)
    sys.stderr.write(selftest.stdout)
    if selftest.returncode != 0:
        fail("benchmark self-tests failed")

    work_dir = os.path.join(build_dir, "runs", f"{args.workload}-seed{args.seed}")
    command = [
        os.path.join(build_dir, "perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--bin-dir={os.path.join(build_dir, 'alert')}",
        f"--work-dir={work_dir}",
    ]
    # Its own session, so a hung run is stopped with every daemon and worker it started.
    run = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        fail(f"workload {args.workload} printed no result (exit {run.returncode})")

    expected = expected_metrics(args.trace == 1)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}")

    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
