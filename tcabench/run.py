#!/usr/bin/env python3
"""Build the tcabench binary from source and run one workload.

Usage (from the repository root):
    python3 tcabench/run.py --workload pio_pingpong --seed 1 --seconds 30 --trace 0

The binary is compiled from ../src and ./driver into .bench_build/ (CMake,
Release) on first use; later runs only re-check the build. Its stdout is
passed through, so the last line is its JSON result. A traced run
(--trace 1) also leaves its host-clock spans in .bench_build/spans/.
Build and run errors go to stderr, with a non-zero exit and no result line.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "tcabench"
# Headroom on top of --seconds for set-up, warm-up and verification.
RUN_SLACK_S = 120
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"tcabench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the binary; serialised by a lock file."""
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          *gen, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "tcabench", "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)} (see {log_path})")
            if done.returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (see {log_path})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = BUILD_DIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within "
             f"{args.seconds + RUN_SLACK_S:.0f} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode not in (0, 1):
        fail(f"{args.workload} exited with status {done.returncode}")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
