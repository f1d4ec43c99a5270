#!/usr/bin/env python3
"""Build and run the end-to-end assignment benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --check-tests

Run from the root of a peachy checkout.  The first call configures and
builds e2ebench/ (which builds the peachy library from ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
let the build tool confirm the build is current.  Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("e2ebench: no peachy sources next to e2ebench/ (CMakeLists.txt, src/)")
    out = build_dir()
    if not (out / "build.ninja").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", "4", "--target", "e2ebench",
         "e2ebench_check_tests"],
        check=True, stdout=sys.stderr)
    return out


def main() -> int:
    try:
        out = build()
    except subprocess.CalledProcessError as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--check-tests"]:
        return subprocess.run([str(out / "e2ebench_check_tests")]).returncode
    return subprocess.run([str(out / "e2ebench"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
