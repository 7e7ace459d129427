"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload train-4x4 --seeds 0-9 [--trace 0]

Runs `bench/run.py` once per seed, one run at a time, for --seconds (default:
run_seconds from BENCHMARK.json). For every metric it prints the median, the
quartiles and the spread (Q3 - Q1) / median; with --trace 0 the spread is also
compared with a third of the metric's bound. Exits 1 if a run fails, reports
incorrect output, or an end-to-end spread other than setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    manifest = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    values, ok = {}, True
    for seed in seed_list(args.seeds):
        cmd = [*manifest["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                         if k in bounds)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound/3")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = stats.quartile_spread(vals)
        line = f"{name:46s} {stats.median(vals):12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}"
        if name in bounds:
            limit = bounds[name] / 3
            line += f"  {limit:.4f} {'ok' if spread <= limit else 'WIDE'}"
            if name != "setup_s" and spread > bounds[name]:
                ok = False
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
