#!/usr/bin/env python3
"""Registry benchmark entry point.

    python3 perfbench/run.py --workload profile|explore|check
        [--seed N] --seconds S [--trace 0|1]

Run from the root of a source checkout. Builds the measuring program
(perfbench/bench.ml) with dune, runs the workload in one single-threaded
process, and prints the result object as the last line of standard
output. S is the time budget of the whole command: the measuring process
gets what the build and the check workload's input generation leave of
it, and starts a round only if the round would end within it, after
making at least three. Everything else goes to standard error; the full
record of the run (its seed, scales, per-round times and, traced, its
spans) is written to perfbench/_out/. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("profile", "explore", "check")
DEFAULT_SEED = 20090314


def run(cmd, **kw):
    """Runs cmd to completion with its output on our standard error."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The shared dune cache would write outside the checkout.
    build = run(["dune", "build", "--root", ROOT, "--cache=disabled",
                 "./perfbench/bench.exe"])
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--out", os.path.join(OUT, tag + ".json")]
    if args.workload == "check":
        # check reads the profiles the profile op saves; they are made in
        # their own process so that they do not count in check's memory.
        profiles = os.path.join(OUT, "profiles-seed%d" % args.seed)
        os.makedirs(profiles, exist_ok=True)
        gen = run([EXE, "save-profiles", "--seed", str(args.seed),
                   "--dir", profiles])
        if gen.returncode != 0:
            print("perfbench: saving the check inputs failed", file=sys.stderr)
            return 1
        cmd += ["--profiles", profiles]

    left = max(0.0, args.seconds - (time.monotonic() - start))
    cmd += ["--seconds", "%.3f" % left]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if args.workload == "check":
        shutil.rmtree(profiles, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: the measuring process failed (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
