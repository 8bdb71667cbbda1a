#!/usr/bin/env python3
"""Builds the wire benchmark from source and runs one workload.

Usage (from the repository root):

    python3 wirebench/run.py --workload eval_hot --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn and exits nonzero if any
run did. The build goes to .bench_build/ (Release; configured once,
rebuilt incrementally) and its output to stderr, so the last line of
stdout is the JSON result of the wirebench program. Run files go under
.bench_run/ and are removed when the run ends, except the traced run's
span file (.bench_run/spans-<workload>.jsonl). Extra arguments (e.g.
--tiny) are passed to the wirebench program.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = ".bench_run"
WORKLOADS = ["eval_hot", "eval_deep", "plan_churn", "append_mixed"]


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "wirebench", "iodb_serve"],
                   stdout=sys.stderr, check=True)
    # Same rule as tools/run_benches.sh: only Release builds are measured.
    with open(cache) as f:
        match = re.search(r"^CMAKE_BUILD_TYPE:[^=]*=(.*)$", f.read(), re.M)
    build_type = match.group(1) if match else ""
    if build_type != "Release":
        sys.exit(f"run.py: refusing to benchmark a '{build_type}' build")


def run(workload, args):
    command = [os.path.join(BUILD, "wirebench"),
               "--serve", os.path.join(BUILD, "iodb", "tools", "iodb_serve"),
               "--work-dir", os.path.join(RUNS, f"{workload}-{os.getpid()}"),
               ] + args
    return subprocess.run(command).returncode


def main():
    args = sys.argv[1:]
    if "--workload" not in args[:-1]:
        sys.exit(__doc__)
    at = args.index("--workload") + 1
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"run.py: build failed: {error}")
    os.makedirs(os.path.join(ROOT, RUNS), exist_ok=True)
    os.chdir(ROOT)  # socket paths are relative, to stay short
    if args[at] != "all":
        sys.exit(run(args[at], args))
    failed = 0
    for workload in WORKLOADS:
        args[at] = workload
        sys.stdout.flush()
        failed += run(workload, args) != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
