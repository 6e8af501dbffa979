#!/usr/bin/env python3
"""Build and run the dual-clock checkpoint benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hpccg_dedup --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the collrep
libraries from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only re-check the build.  Build output
goes to stderr, so the benchmark's own output -- a metric table and, as the
last line, one JSON result object -- is all that reaches stdout.  Extra
arguments (--smoke, --out-dir) are passed through to the binary.  The exit
code is the benchmark's: 0 only when every correctness check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no collrep sources at {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(os.path.join(build_root, "perfbench"))
    except OSError as e:
        fail(f"cannot build: {e}")
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(build_root, "perfbench-out")]
    cmd = [exe] + args + ["--commit", commit_id()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
