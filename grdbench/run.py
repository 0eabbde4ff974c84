#!/usr/bin/env python3
"""Build the Guardian end-to-end benchmark from this checkout and run it.

    python3 grdbench/run.py --workload serve|train|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/grdbench (default .bench_build/grdbench) and is
incremental after the first run. The benchmark's own stdout is passed
through, so its last line is the JSON result. The benchmark runs in its own
process group; on a timeout or a crash the whole group, forked manager
workers included, is killed and waited for.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "grdbench")


def build():
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "grdbench", "-j",
              str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            return None
        if done.returncode != 0:
            return None
    return os.path.join(out, "grdbench")


def kill_group(pgid):
    """SIGKILL every process left in the group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve", "train", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("grdbench: build failed", file=sys.stderr)
        return 1

    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        print("grdbench: run timed out", file=sys.stderr)
        return 1
    finally:
        kill_group(proc.pid)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode if proc.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
