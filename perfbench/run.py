#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds `perfbench/` in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build` under the current directory), runs it with the given
arguments and passes its output through. The last line of standard
output is the benchmark's JSON result. Exits non-zero, without a
result, if the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run did not finish: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        print("perfbench: the last line is not a result", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
