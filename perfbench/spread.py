#!/usr/bin/env python3
"""Runs the benchmark on several seeds at BENCHMARK.json's run_seconds and
prints, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median, next to the bound BENCHMARK.json allows. Exits 1 if a
run is incorrect or a spread exceeds its bound.

    python3 perfbench/spread.py --workload mpc-lowdim --seeds 1-10

Each run's record and result lines are kept in --out DIR (default
perfbench/out/spread) as <workload>-<seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(workload, runs, bound):
    correct = all(r["correct"] for r in runs)
    print(f"{workload}: {len(runs)} runs, all correct: {correct}")
    ok = correct
    for name, b in bound.items():
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < b / 3 else "  <-- above bound/3"
        ok &= spread <= b
        print(f"  {name:18s} median {med:14.6g}  spread {spread:7.4f}  bound {b}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--out", default=os.path.join(HERE, "out", "spread"))
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(a.out, exist_ok=True)
    ok = True
    for workload in a.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds_of(a.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
            record, last = out.stdout.strip().splitlines()[-2:]
            with open(os.path.join(a.out, f"{workload}-{seed}.json"), "w") as f:
                f.write(record + "\n" + last + "\n")
            runs.append(json.loads(last))
        ok &= summarize(workload, runs, bound)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
