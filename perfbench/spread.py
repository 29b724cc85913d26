#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 1]

Runs the benchmark once per seed (seeds first_seed .. first_seed+9) on every
workload in BENCHMARK.json, for its run_seconds, from the current directory,
and reports for every end-to-end metric the median of the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.  A
spread is flagged when it exceeds a third of the metric's bound in
BENCHMARK.json.  Exits 1 if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    values = {}
    failed = False
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = list(spec["command"]) + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {done.returncode})")
                failed = True
                continue
            for name, m in result["metrics"].items():
                values.setdefault((w, name), []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                flush=True)
    for w in workloads:
        for m in spec["end_to_end"]:
            xs = values.get((w, m["name"]), [])
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  > bound/3"
            print(f"{w:<10} {m['name']:<14} median {med:<12.6g} spread "
                  f"{spread:6.1%} (bound {m['bound']:.0%}){flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
