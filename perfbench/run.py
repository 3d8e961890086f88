#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload figure_grid|fault_campaign|reesed_jobs \
        [--seed N] [--seconds S] [--trace 0|1] [--small] [--corrupt-reference]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; its progress is written to stderr. Standard output is the
benchmark's report, whose last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is the benchmark's:
0 only when every output check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 0x5EED5EED
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then let the build tool bring the binaries up to date."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def source_id():
    """Git commit when available, else a digest of the simulator sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["figure_grid", "fault_campaign",
                                 "reesed_jobs"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb the reference results (self-test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reesed", os.path.join(build_dir, "reesed"),
        "--out-dir", os.path.join(build_dir, "results"),
        "--source-id", source_id(),
    ]
    if args.small:
        command.append("--small")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    # Own process group, so a timeout also stops the reesed child.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)


if __name__ == "__main__":
    sys.exit(main())
