#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a dynvote checkout:

    python3 perfbench/run.py --workload serve-keyed --seed 1 --seconds 40 --trace 0

Workloads: serve-keyed, mc-bound.  The build goes
to .bench_build/ and cluster state to .bench_work/, both inside the
checkout.  Build output goes to stderr; stdout is the benchmark's report,
whose last line is the JSON result.  The exit code is the benchmark's:
0 when every output check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["serve-keyed", "mc-bound"]
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    # The benchmark links the repository's libraries: without them there
    # is nothing to measure.
    for needed in ["dune-project", "lib", os.path.join("perfbench", "dune")]:
        if not os.path.exists(needed):
            fail("run from the root of a dynvote checkout (missing %s)" % needed, 2)

    env = dict(os.environ)
    # Keep every build artefact inside the checkout, and the run
    # independent of the model checker's spill knob.
    env["DUNE_CACHE"] = "disabled"
    env.pop("DUNE_BUILD_DIR", None)
    env.pop("DYNVOTE_MC_SPILL", None)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        fail("build failed", 3)

    # A runner that is told to stop stops the run with it.
    def stop(signum, frame):
        raise KeyboardInterrupt
    signal.signal(signal.SIGTERM, stop)

    child = subprocess.Popen(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env)
    try:
        code = child.wait(timeout=170)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        child.kill()
        child.wait()
        code = 4
    # A run that was killed leaves its cluster directory behind.
    leftover = os.path.join(WORK_DIR, "%s-%d" % (args.workload, child.pid))
    shutil.rmtree(leftover, ignore_errors=True)
    if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
        os.rmdir(WORK_DIR)
    sys.exit(code)


if __name__ == "__main__":
    main()
