#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed for each
named workload and prints, per metric, the median of the runs and the
distance between their first and third quartiles as a share of that
median (statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 e2ebench/steady.py [--seeds 10] [--first-seed 101] [workload ...]

Run it from the checkout root. It writes each run's output under
.bench_build/steady/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    out_dir = os.path.join(".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    worst = {}
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            with open(os.path.join(out_dir, f"{name}-{seed}.log"), "w") as f:
                f.write(p.stdout + p.stderr)
            if p.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed}: {res}")
            for m in values:
                values[m].append(res["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{m}={v[-1]:.6g}" for m, v in values.items()), flush=True)
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / statistics.median(vs)
            worst[(name, m["name"])] = spread
            print(f"  {name:10s} {m['name']:14s} median {statistics.median(vs):12.6g} {m['unit']:5s} "
                  f"spread {spread:6.3f}  bound {m['bound']}  ({'ok' if spread < m['bound'] / 3 else 'WIDE'})", flush=True)


if __name__ == "__main__":
    main()
