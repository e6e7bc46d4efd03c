#!/usr/bin/env python3
"""Builds the benchmark package and runs it with the given arguments.

    python3 perfbench/run.py --workload fig3-cold --seed 1 --seconds 25 --trace 0

Run it from the repository root. The package is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the working directory); build
output goes to stderr. The benchmark then replaces this process, so its
standard output, ending in the JSON result line, and its exit code are the
command's own.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return build.returncode or 1
    exe = target / "release" / "mcsched-perfbench"
    os.execv(exe, [str(exe), *sys.argv[1:]])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
