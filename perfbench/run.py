#!/usr/bin/env python3
"""Builds and runs one workload of the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sparse_eager [--seed 1] [--seconds 40] [--trace 0]

It builds the `congest-serve` binary and the benchmark package in release
mode (into $CARGO_TARGET_DIR, by default `.bench_build`), then runs the
benchmark, which prints every metric with its unit and, as the last line of
standard output, one JSON object with the result. The exit code is non-zero
when any output is wrong or the run cannot complete. See README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        print("perfbench: run from the repository root (no Cargo.toml and crates/ here)", file=sys.stderr)
        return 2
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "congest-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "congest-serve"),
        "--out", os.path.join(here, "out"),
    ]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
