#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs it on several seeds per workload
and prints, per metric, the median and the quartile spread (Q3 - Q1) / median
as statistics.quantiles(values, n=4) gives it, next to the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --workloads scatter_warm --seeds 5

It runs seeds 1..N with tracing off and flags a metric whose spread exceeds
a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect result {res}")
            runs.append(res["metrics"])
            steal = [l for l in out.stdout.splitlines() if l.startswith("host: steal")]
            print(f"{name} seed {seed}: {steal[0] if steal else ''}", flush=True)
        for metric in sorted(runs[0]):
            vals = [r[metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER BOUND")
            print(f"  {name:18} {metric:34} median {med:14.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))


if __name__ == "__main__":
    main()
