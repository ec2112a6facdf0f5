#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Builds the `perfbench` package (its own Cargo workspace, which compiles the
repository's crates from source) into $CARGO_TARGET_DIR, `.bench_build`
by default, then runs one workload. The benchmark's result is the last
line of standard output: a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Build output and progress go to
standard error. Exits non-zero, without a result line, when the build or
the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The first build in a checkout compiles every crate; a run ends well
# within its own limit.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def environment():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build(env):
    """Builds the benchmark; returns the binary's path, or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "perfbench")


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(exe, args, env):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    env = dict(env, PERFBENCH_COMMIT=env.get("PERFBENCH_COMMIT", commit()))
    try:
        done = subprocess.run([exe, *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run did not finish: {e}", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    """The result object of the last output line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    env = environment()
    exe = build(env)
    if exe is None:
        return 1
    code, stdout = run(exe, sys.argv[1:], env)
    if code != 0 or result_of(stdout) is None:
        sys.stderr.write(stdout)
        print(f"perfbench: run failed (exit code {code})", file=sys.stderr)
        return code or 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
