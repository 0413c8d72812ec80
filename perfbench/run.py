#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

    python3 perfbench/run.py --workload byz-sim --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a CMake project that compiles the repo's libraries from
src/) into .bench_build/perfbench under the repo root, then runs the
harness.  The harness's last stdout line is the result object; see
perfbench/README.md for the workloads and metrics.  Exits non-zero without
a result when the sources are missing, the build fails, the correctness
gate fails or the run overstays its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# Margin on top of --seconds for the warm-up repetition, the last timed
# repetition's overshoot and process start.
RUN_MARGIN_S = 120


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not build():
        log("build failed")
        return 2

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    # SIGTERM unwinds through the finally below, so the harness never
    # outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait(timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        log("run overstayed its time limit")
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
