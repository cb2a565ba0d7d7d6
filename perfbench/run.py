#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

perfbench/ is a Go module of its own that requires the repository's
module through a local replace directive. This script builds it into
.bench_build/ at the checkout root (Go's build cache lives there too, so a
rebuild after the first one only relinks) and runs the workload in a fresh
process, so peak RSS is that run's alone. The last line of standard
output is the JSON result; build output goes to standard error. Nothing
is read or written outside the checkout except the Go toolchain itself.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    binary = os.path.join(BUILD, "perfbench")
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=go_env(),
        stdout=sys.stderr,
    )
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-workdir", os.path.join(BUILD, "work"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def kill():
        # A killed run cannot remove its own scratch directory.
        proc.kill()
        proc.wait()
        shutil.rmtree(os.path.join(BUILD, "work", f"{args.workload}-{proc.pid}"), ignore_errors=True)

    def stop(signum, _frame):
        # Terminated from outside: the run must not outlive this script.
        kill()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill()
        sys.exit("perfbench: run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
