#!/usr/bin/env python3
"""Build and run the whart end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a whart checkout.  The first run configures and
builds the library and the benchmark binary (Release) under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build.  The binary's output is passed through: its last line is the
result JSON.  Exits non-zero, without a result, when the whart sources
are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("plant_cold", "replan", "crosscheck", "long_interval")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def configured_for(cache, source):
    """True when the CMake cache in `cache` was made for `source`."""
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return Path(line.split("=", 1)[1]).resolve() == source.resolve()
    return False


def build(root):
    source = root / "e2ebench"
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    build_dir = target_dir / "e2ebench"
    if not configured_for(build_dir / "CMakeCache.txt", source):
        shutil.rmtree(build_dir, ignore_errors=True)
        configure = subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "whart_e2ebench",
         "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr)
    if compile_.returncode != 0:
        fail("build failed")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no whart sources under {root}; run from a whart checkout")
    build_dir = build(root)

    command = [str(build_dir / "whart_e2ebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)


if __name__ == "__main__":
    main()
