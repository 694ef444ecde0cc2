#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed, then prints, for every metric of the
last output line, the median of the runs and the distance between the
first and third quartile as a share of that median (the spread that
BENCHMARK.json's bounds are checked against).

    python3 perfbench/spread.py --workload reads --seeds 1-10 [--seconds 25] [--trace 0]

Run it from the repository root. Each run's full output is kept under
perfbench/out/spread/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    logs = os.path.join(HERE, "out", "spread")
    os.makedirs(logs, exist_ok=True)
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        log = os.path.join(logs, f"{args.workload}-seed{seed}-trace{args.trace}.log")
        with open(log, "w") as f:
            f.write(proc.stdout + proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}, see {log}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect, see {log}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    print(f"\n{'metric':<34} {'median':>12} {'IQR/median':>11} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:<34} {med:>12.6g} {spread:>11.4f} {bound if bound is not None else '':>6} {flag}")


if __name__ == "__main__":
    main()
