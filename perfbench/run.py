#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload uniform-small --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or
.bench_build when it is unset; the first run configures and compiles (about
a minute on 4 cores), later runs only check that the build is current.
Every other argument is handed to the `perfbench` binary, whose last stdout
line is the result (see perfbench/README.md). `--test` instead builds and
runs the benchmark's own unit tests.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no ZHT sources next to perfbench/\n")
        return False
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if subprocess.call(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", out, "-j", jobs,
                            "--target", target],
                           stdout=log, stderr=log) == 0


def main(argv):
    out = build_dir()
    if "--test" in argv:
        if not build(out, "perfbench_tests"):
            return 1
        return subprocess.call([os.path.join(out, "perfbench_tests")],
                               cwd=ROOT)
    if not build(out, "perfbench"):
        return 1
    work = os.path.join(out, "work")
    traces = os.path.join(out, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    # A traced run dumps its spans here; an untraced run ignores the path.
    name = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] \
        else "run"
    args = [os.path.join(out, "perfbench"), "--work-dir", work,
            "--trace-out", os.path.join(traces, name + ".spans")]
    proc = subprocess.run(args + argv, cwd=ROOT, timeout=170)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
