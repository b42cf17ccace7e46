#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper|light|serve|all \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/
(a CMake project that compiles the simulator libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then
replaces itself with the benchmark driver, so the driver is the only
process left running. Build output goes to stderr; the driver prints
the metrics, and its last stdout line is the JSON result. A traced run
(--trace 1) also writes its per-cell layer totals next to the build.
--workload all runs the three workloads one after the other.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "light", "serve")


def build(build_dir):
    """Configure (once) and build the driver; exit on failure."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are not next "
                 "to perfbench/; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)

    def argv(workload):
        driver = os.path.join(build_dir, "perfbench_driver")
        out = [driver, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--expected", os.path.join(HERE, "expected.txt")]
        if args.trace:
            out += ["--trace-out", os.path.join(
                build_dir, "trace-%s-seed%d.json" % (workload, args.seed))]
        return out

    sys.stdout.flush()
    sys.stderr.flush()
    if args.workload != "all":
        cmd = argv(args.workload)
        os.execv(cmd[0], cmd)
    # Every workload in turn, each waited for before the next starts.
    failed = False
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        failed |= subprocess.run(argv(workload)).returncode != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
