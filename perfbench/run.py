#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/pbench.exe with
dune (inside the checkout, shared dune cache off), runs one workload, and
relays its output; the last line of standard output is the result JSON
object. Exits nonzero, without a result line, when the build fails, the
benchmark crashes or times out, or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("verify-usb", "verify-german", "serve-sinks")
EXE = os.path.join("_build", "default", "perfbench", "pbench.exe")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: not at the root of a source checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/pbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict) \
            or result.get("correct") is not True:
        sys.stderr.write(run.stdout)
        print("run.py: benchmark failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return run.returncode or 1
    for line in body:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
