#!/usr/bin/env python3
"""Steadiness study for the repository benchmark.

Runs the command from BENCHMARK.json on each workload with one seed per
run, then reports for every end-to-end metric the median, the first and
third quartiles (Python's ``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out FILE]

Run it from the root of the repository. The study is written as JSON to
``--out`` (default: print only).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    study = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        values = {m: [] for m in bounds}
        walls = []
        for seed in seeds:
            result, elapsed = run_once(bench, name, seed)
            walls.append(round(elapsed, 2))
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={values[m][-1]:.6g}" for m in bounds) + f" ({elapsed:.1f} s)", flush=True)
        rows = {}
        for m, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[m], "values": vals,
            }
            flag = "" if m == "setup_s" or spread <= bounds[m] / 3 else "  <-- above bound/3"
            print(f"  {name} {m}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {bounds[m]}{flag}", flush=True)
        study["workloads"][name] = {"run_wall_s": walls, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(study, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
