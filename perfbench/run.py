#!/usr/bin/env python3
"""Benchmark entry point: builds `ukc` and the load generator from source,
then runs one benchmark invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <cold_solve|serve_mix|stream_rw> \
        --seed <n> --seconds <s> --trace <0|1>

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); results and
trace spans go to `.bench_out/`. Build output goes to stderr, so the
load generator's report is all of stdout and its last line is the result JSON.
"""

import os
import subprocess
import sys


def build(cmd, env):
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile("Cargo.toml"):
        sys.exit("run.py: run me from the root of a checkout (no Cargo.toml here)")
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(["cargo", "build", "--release", "--offline", "-q",
           "-p", "ukc-cli", "--bin", "ukc"], env)
    build(["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", os.path.join("perfbench", "loadgen", "Cargo.toml")], env)
    loadgen = [os.path.join(target, "release", "ukc-perfbench"),
              "--ukc", os.path.join(target, "release", "ukc"),
              "--out-dir", ".bench_out"] + sys.argv[1:]
    sys.exit(subprocess.run(loadgen).returncode)


if __name__ == "__main__":
    main()
