#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <tpcc_cl|tpcc_read|tpcc_recover> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo builds into $CARGO_TARGET_DIR, or `.bench_build` at the repository
root when that is unset. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. A failed build exits
with cargo's code and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)  # a relative target dir is taken from the root
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
