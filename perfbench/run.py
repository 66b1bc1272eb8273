#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload dedup|online|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the program's libraries from src/ plus the
driver) into .bench_build/perfbench; later runs rebuild only what changed.
Each run gets a private work directory under .bench_build/runs (the LM
pre-train cache and checkpoints live there and are removed afterwards), so
no two runs or checkouts share a cache file. Quality fingerprints per seed
are kept under .bench_build/fingerprints/<binary hash>, so a rerun at the
same seed must reproduce F1 and the training guard's verdict exactly.

The last line of stdout is the JSON result. Build output goes to stderr.
Exits non-zero when the sources are missing, the build fails, or the run
fails an answer check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("program sources (src/CMakeLists.txt) not found under " + root)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dedup", "online", "fleet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_root = os.path.join(root, ".bench_build")
    try:
        binary = build(root, os.path.join(bench_root, "perfbench"))
    except subprocess.CalledProcessError as e:
        fail("build failed: " + str(e))

    fingerprints = os.path.join(bench_root, "fingerprints", file_hash(binary))
    os.makedirs(fingerprints, exist_ok=True)
    runs = os.path.join(bench_root, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--workdir", workdir, "--fingerprints", fingerprints],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: run produced no result line (exit %d)"
              % proc.returncode, file=sys.stderr)
        sys.exit(proc.returncode or 1)
    if proc.returncode != 0 or result["correct"] is not True:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
