#!/usr/bin/env python3
"""Build and run the dsv3 host-throughput benchmark.

    python3 perfbench/run.py --workload serving_closed --seed 1 \
        --seconds 15 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (and the simulator libraries under src/) into
.bench_build/perfbench; later calls only rebuild what changed. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. `--workload all` runs every workload, one process each.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference_digests.txt")
WORKLOADS = ["serving_closed", "net_fabric", "numerics_fp8"]


def build():
    """Configure once, then build incrementally; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def commit():
    """The checked-out commit, or 'none' outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--held-out", action="store_true",
                    help="map --seed into the held-out seed space")
    ap.add_argument("--perturb", action="store_true",
                    help="test hook: corrupt one output of the run")
    args = ap.parse_args()

    if not build():
        return 1
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", REFERENCE, "--commit", commit()]
        if args.held_out:
            cmd.append("--held-out")
        if args.perturb:
            cmd.append("--perturb")
        sys.stdout.flush()
        rc = rc or subprocess.run(cmd).returncode
    return rc


if __name__ == "__main__":
    sys.exit(main())
