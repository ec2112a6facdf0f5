#!/usr/bin/env python3
"""Self-test of the benchmark, at toy scale.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Runs the benchmark's unit tests, then every workload of BENCHMARK.json on
tiny inputs, untraced and traced. Checks that each run is correct and
prints exactly the metrics BENCHMARK.json names, with their units, and
that a run whose first output is deliberately damaged reports the damage
as a failed operation. Exits non-zero on the first problem.
"""

import json
import os
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def toy_run(exe, env, workload, trace, corrupt=False):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--toy"] + (["--corrupt"] if corrupt else [])
    code, stdout = run.run(exe, args, env)
    result = run.result_of(stdout)
    if code != 0 or result is None:
        raise AssertionError(f"{workload} trace {trace}: exit {code}, no result")
    return result


def expect_metrics(result, specs, what):
    units = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(got) & set(units) if got[n] != units[n])
        raise AssertionError(f"{what}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} is not a number")


def main():
    env = run.environment()
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(run.HERE, "Cargo.toml")],
        cwd=run.ROOT, env=env, stdout=sys.stderr)
    if tests.returncode != 0:
        print("selftest: unit tests failed", file=sys.stderr)
        return 1
    exe = run.build(env)
    if exe is None:
        return 1
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = toy_run(exe, env, name, trace)
            what = f"{name} trace {trace}"
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                raise AssertionError(f"{what}: not correct: {result}")
            expect_metrics(result, specs, what)
            print(f"selftest: {what}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, all correct")
        damaged = toy_run(exe, env, name, 0, corrupt=True)
        if damaged["correct"] or damaged["failed"] < 1:
            raise AssertionError(f"{name}: damaged output was not counted: {damaged}")
        print(f"selftest: {name}: damaged output counted "
              f"({damaged['failed']} of {damaged['attempted']} failed)")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
