#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload detect|serve|fleet --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds the library and the timing driver
(bolt_perfbench.cc) into .bench_build/ with CMake, runs the driver at
min(4, nproc) threads and prints, as the last line of stdout, one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the lines before it carry the environment
stamp, the per-pass figures and, when tracing, the span summary.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("detect", "serve", "fleet")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")
    return args


def threads():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure once, then bring the driver up to date (output to stderr)."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT} (run from a full checkout)", 2)
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "bolt_perfbench", "-j", str(threads())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return cmake_dir / "bolt_perfbench"


def run_driver(exe, args, spans_path):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--threads", str(threads()),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(spans_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode:
        fail(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw):
    rates = [i / w for i, w in zip(raw["pass_items"], raw["pass_wall_s"])]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "items_per_s": statistics.median(rates),
    }


def per_layer(raw, spans):
    out = dict(raw["layer"])
    for name, samples in raw["layer_samples"].items():
        out[name] = statistics.median(samples)
    out["util.rng.est_s"] = out["util.rng.streams"] * \
        out["util.rng.stream_ns"] * 1e-9

    analyze = raw["latency_samples"].get("core.recommender.analyze_us", [])
    tail = benchstats.tail_percentile(analyze) if analyze else None
    if analyze and (tail is None or tail[0] != 99):
        fail(f"{len(analyze)} analyze samples cannot support a p99")
    out["core.recommender.analyze_us.p50"] = \
        benchstats.nearest_rank(analyze, 50) if analyze else 0.0
    out["core.recommender.analyze_us.p99"] = tail[1] if tail else 0.0
    out["core.recommender.analyze_us.n"] = len(analyze)

    untraced = statistics.median(raw["untraced_s"])
    traced = statistics.median(raw["traced_s"])
    out["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    out["trace.spans"] = len(spans)
    return out


def main():
    args = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe = build()
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"

    raw = run_driver(exe, args, spans_path)
    print(json.dumps({"env": raw["env"]}))
    print(json.dumps({"digest": raw["digest"],
                      "pass_wall_s": raw["pass_wall_s"],
                      "pass_items": raw["pass_items"],
                      "checks": raw["checks"]}))

    if args.trace:
        spans = [json.loads(line) for line in
                 spans_path.read_text().splitlines() if line]
        for path, row in sorted(benchstats.span_summary(spans).items()):
            print(json.dumps({"span": path, **row}))
        values = per_layer(raw, spans)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    attempted, failed, _ = benchstats.failure_counts(
        raw["attempted"], raw["failed"], raw["checks_ok"])
    print(json.dumps({"correct": raw["checks_ok"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
