#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload detect [--runs 10] [--first-seed 1]

Runs `run.py --trace 0` once per seed (first-seed, first-seed + 1, ...)
and prints, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median next to a third of the metric's bound from
BENCHMARK.json, the target for a steady benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: correctness check failed")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "failed": result["failed"], **row}),
              flush=True)
        for name in values:
            values[name].append(row[name])

    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        print(json.dumps({
            "metric": m["name"],
            "median": statistics.median(vals),
            "spread": benchstats.quartile_spread(vals),
            "target": m["bound"] / 3,
        }))


if __name__ == "__main__":
    main()
