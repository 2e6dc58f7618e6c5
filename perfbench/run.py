#!/usr/bin/env python3
"""Builds the RF-Prism benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built into $CARGO_TARGET_DIR (default `.bench_build` in the
current directory). Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Exits non-zero, printing
no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--quiet", "--offline",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    proc = subprocess.Popen([os.path.join(target, "release", "perfbench")] + sys.argv[1:])
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
