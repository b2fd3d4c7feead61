#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark.

    python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The harness is configured and built
(Release) under $CARGO_TARGET_DIR/wallbench, or .bench_build/wallbench
when the variable is unset; later runs reuse the build.  Build output goes
to standard error, so the harness's JSON result stays the last line of
standard output.  Exits non-zero without a result when the library
sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("wallbench: library sources (src/CMakeLists.txt) not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "wallbench",
         "-j", str(min(os.cpu_count() or 1, 4))],
        stdout=sys.stderr, check=True)
    return build_dir / "wallbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else Path.cwd() / target)
    build_dir = build_dir / "wallbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"wallbench: build failed: {error}")
    return subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out-dir", str(build_dir / "traces")]).returncode


if __name__ == "__main__":
    sys.exit(main())
