#!/usr/bin/env python3
"""Tiny-size self-test of the wire benchmark.

Runs every workload of BENCHMARK.json at tiny size, end to end and traced,
and checks that each run exits 0 with a correct result, that the JSON
result holds exactly the metrics BENCHMARK.json names for that mode, each
printed with its unit and a finite value, and that trace.coverage is at
most 1.

    python3 wirebench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    command = [sys.executable, os.path.join(ROOT, "wirebench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"exit {done.returncode}: {done.stderr[-2000:]}"
    return json.loads(lines[-1]), lines


def check(result, lines, expected):
    problems = []
    if not result["correct"]:
        problems.append("run reported correct=false")
    if result["attempted"] < 1:
        problems.append("no request attempted")
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"{name}: missing from the JSON result")
            continue
        if got["unit"] != unit:
            problems.append(f"{name}: unit {got['unit']!r}, want {unit!r}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"{name}: value {got['value']!r} is not finite")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines):
            problems.append(f"{name}: not printed in the table")
    extra = set(result["metrics"]) - {metric["name"] for metric in expected}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    coverage = result["metrics"].get("trace.coverage")
    if coverage is not None and coverage["value"] > 1:
        problems.append(f"trace.coverage {coverage['value']} > 1")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result, lines = run(workload, trace)
            problems = [lines] if result is None else \
                check(result, lines, expected)
            status = "FAIL" if problems else "ok"
            print(f"{status:4s} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
