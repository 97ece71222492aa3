#!/usr/bin/env python3
"""Build and run the host-cost benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune (build directory: $CARGO_TARGET_DIR,
default .bench_build; the shared dune cache is disabled so nothing is written
outside the checkout), runs it, and relays its output.  The last line of
standard output is the benchmark's JSON result.  Exits non-zero, printing no
result, when the checkout lacks the program's sources or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("table1", "dom-churn", "fleet-browse")
OUT_DIR = ".bench_out"  # spans of traced runs and the runtime-events ring


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    for needed in ("dune-project", "lib", "perfbench/dune", "perfbench/pins.txt"):
        if not os.path.exists(needed):
            sys.exit("perfbench: %s not found; run from the root of a source checkout" % needed)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "--cache=disabled",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    cmd = [
        os.path.join(build_dir, "default", "perfbench", "perfbench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-out", os.path.join(OUT_DIR, "spans-%s.json" % args.workload),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                             timeout=max(170, 60 + 3 * args.seconds))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark timed out")
    if run.returncode != 0:
        sys.exit("perfbench: benchmark exited with code %d" % run.returncode)
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
