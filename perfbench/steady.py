#!/usr/bin/env python3
"""Steadiness check: run one workload several times and summarise it.

    python3 perfbench/steady.py --workload NAME [--runs 5] [--seed 1]
                                [--seed-step 1] [--seconds 10] [--trace 0]

Runs perfbench/run.py once per seed (seed, seed+step, ...; a step of 0
repeats one seed, which separates run-to-run noise from input variation),
prints each run's values, and then, for
every metric, its median, first and third quartiles (Python's
statistics.quantiles with n=4), the quartile spread as a share of the
median, and the max/min ratio. End-to-end metrics also show the bound
BENCHMARK.json gives them and are flagged when the spread exceeds a third
of it. Exits non-zero when a run fails or reports incorrect outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: seed {seed} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady: seed {seed} reported incorrect outputs")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seed-step", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values = {}
    units = {}
    seeds = [args.seed + i * args.seed_step for i in range(args.runs)]
    for seed in seeds:
        res = one_run(args.workload, seed, seconds, args.trace)
        shown = " ".join(f"{name}={m['value']:.5g}" for name, m in sorted(res["metrics"].items()) if name in bounds)
        print(f"seed {seed}: attempted={res['attempted']} failed={res['failed']} {shown}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{args.workload}: {args.runs} runs, seeds {' '.join(map(str, seeds))}")
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'max/min':>8s} {'bound':>6s}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        lo, hi = min(vs), max(vs)
        ratio = hi / lo if lo > 0 else float("inf") if hi > 0 else 1.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- spread above bound/3"
        btxt = f"{bound:6.2f}" if bound is not None else ""
        print(f"{name:36s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {ratio:8.3f} {btxt}{flag}  {units[name]}")


if __name__ == "__main__":
    main()
