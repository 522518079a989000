#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness (perfbench/main.ml) is built with dune in the release
profile into .bench_build/, then run once.  Its standard output is
passed through; the last line is the JSON result.  Build output goes to
standard error.  Traced runs write their spans to .bench_out/.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: no dune-project and lib/ here; run from the repository root")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, "perfbench/main.exe"],
            env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed with status {build.returncode}")

    os.makedirs(OUT_DIR, exist_ok=True)
    # Runtime_events puts its ring file here (traced runs read GC pauses
    # from it); the runtime removes the file at exit.
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT_DIR
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, timeout=175)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
