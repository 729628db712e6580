#!/usr/bin/env python3
"""Build and run the ifko benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-golden --workload NAME --seed 1 ...

Run from the root of an ifko checkout.  The first run configures and builds
perfbench (CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild only what changed.  Build output
goes to stderr.  The last line of standard output is the JSON result of the
run; the exit code is nonzero on any failure (including a golden-output
mismatch).  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
HASHED_DIRS = ("src", "kernels_hil", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit_id(root):
    """HEAD of a git checkout (read from .git, no git process), or a hash of
    the sources when the checkout is not a repository."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for d in HASHED_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run_quiet(cmd, timeout):
    """Runs a build step, its output sent to stderr."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build(root, build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    if not run_quiet(["cmake", "--build", build_dir, "--target", target,
                      "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    return os.path.join(build_dir, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's unit tests")
    p.add_argument("--write-golden", action="store_true",
                   help="record the golden snapshot instead of checking it")
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the root of an ifko checkout (no src/CMakeLists.txt)")
    work = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work = os.path.relpath(os.path.join(root, work), root)
    build_dir = os.path.join(work, "perfbench")

    if args.selftest:
        exe = build(root, build_dir, "perfbench_test")
        sys.exit(subprocess.run([exe]).returncode)

    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required")
    exe = build(root, build_dir, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--commit", commit_id(root)]
    if args.write_golden:
        cmd.append("--write-golden")
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
