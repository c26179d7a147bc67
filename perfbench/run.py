#!/usr/bin/env python3
"""Build and run the fixfuse benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library modules of src/ plus the benchmark
program) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs one workload. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Every file the run
writes stays under the build directory; the per-run scratch directory
is removed afterwards. Workloads and metrics: perfbench/METRICS.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["compile_cold", "serve_warm", "serve_churn", "kernels_native"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configure once, then build the program; output goes to stderr."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no fixfuse sources (src/) next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    # Sockets live here too, so keep the path relative and short.
    work = os.path.relpath(os.path.join(build_dir, "run-%d" % os.getpid()),
                           root)
    shutil.rmtree(os.path.join(root, work), ignore_errors=True)
    os.makedirs(os.path.join(root, work, "tmp"))
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(root, work, "tmp")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", work]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]

    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    finally:
        shutil.rmtree(os.path.join(root, work), ignore_errors=True)
    if code is None:
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    if code != 0:
        fail("run failed with exit code %d" % code)


if __name__ == "__main__":
    main()
