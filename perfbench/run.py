#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`); its messages go to stderr. The benchmark's own
output goes to stdout and ends with one JSON line. The exit code is the
benchmark's: 0 on success, 1 when an output check failed, 2 on a failed
build, bad arguments or a failed set-up, 3 when the run overran its time.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must end within 180 s; a run that hangs is killed first.
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3
    finally:
        # Durable members' data directories; the benchmark removes its own,
        # this clears what a killed run left behind.
        shutil.rmtree(os.path.join(ROOT, ".bench_build", "perfbench-data"), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
