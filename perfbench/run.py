#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload svc_mix --seed 3 --seconds 30 --trace 0

The first run in a checkout builds the perfbench binary from source
(CMake, Release) into .bench_build/perfbench; build output goes to
stderr.  Each run then executes the workload in a fresh process, whose
last stdout line is the result JSON.  Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig5_local", "svc_mix", "fleet_mc")
# A run must end within 180 s; leave the wrapper room to report.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then bring the binary up to date."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ninja = shutil.which("ninja")
        configured = os.path.exists(
            os.path.join(BUILD, "build.ninja" if ninja else "Makefile"))
        if not configured:
            generator = ["-G", "Ninja"] if ninja else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release", *generator],
                           stdout=sys.stderr, check=True, env=env)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", "4"], stdout=sys.stderr, check=True, env=env)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    # BENCHMARK.json's run_seconds.
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    scratch = os.path.join(ROOT, ".bench_build", "perfbench-run")
    traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary,
           f"workload={args.workload}",
           f"seed={args.seed}",
           f"seconds={args.seconds}",
           f"trace={args.trace}",
           f"digests={os.path.join(HERE, 'digests.txt')}",
           f"workdir={os.path.join(scratch, f'{args.workload}-{os.getpid()}')}"]
    if args.trace:
        cmd.append("trace_out=" + os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json"))

    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: {args.workload} did not finish within "
              f"{RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
