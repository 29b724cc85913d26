#!/usr/bin/env python3
"""Paired comparison of two builds on the benchmark.

    python3 perfbench/compare.py --base PARENT_CHECKOUT --head CHANGE_CHECKOUT \
        [--pairs 10] [--seconds S] [--size full|tiny]

Each checkout is a source tree holding BENCHMARK.json and perfbench/; each
side is built and run there with its own perfbench/run.py.  Every workload
in the base's BENCHMARK.json is run.  Pair i runs both sides on seed
FIRST_SEED + i, base first on even pairs and head first on odd ones.  For every (workload, metric) the report gives each side's median and
quartiles and the share of pairs the head won (ties count for neither side),
then a verdict against the bounds in the base's BENCHMARK.json:

  worse       the head's median is worse than the base's by more than the bound
  improved    the head won at least 9 of 10 pairs and the medians differ by
              more than the base's own spread (q3 - q1)
  unresolved  the base's spread exceeds the bound and not every head run beat
              every base run
  unchanged   otherwise

Exits 1 if any verdict is "worse", 2 if a run failed, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Seeds of the pairs start here, away from the seeds references.json
# was recorded on, so a comparison measures inputs no one tuned on.
FIRST_SEED = 1000


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_side(checkout, spec, workload, seed, seconds, size):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    if size != "full":
        cmd += ["--size", size]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or not result or not result.get("correct"):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed "
                           f"(exit {done.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(metric, base, head):
    """Compare lists of per-pair values; returns a dict for the report."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if (h < b if lower else h > b))
    won = wins / len(pairs)
    worse_by = ((hmed - bmed) if lower else (bmed - hmed)) / abs(bmed) if bmed else 0.0
    spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
    all_better = (max(head) < min(base)) if lower else (min(head) > max(base))
    if worse_by > bound:
        v = "worse"
    elif won >= 0.9 and abs(hmed - bmed) > (bq3 - bq1) and worse_by < 0:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"base": [bq1, bmed, bq3], "head": [hq1, hmed, hq3],
            "head_won": won, "change": -worse_by, "verdict": v}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")
    base_spec, head_spec = load_spec(args.base), load_spec(args.head)
    workloads = [w["name"] for w in base_spec["workloads"]]
    seconds = args.seconds or base_spec["run_seconds"]
    metrics = base_spec["end_to_end"]
    values = {(w, m["name"]): ([], []) for w in workloads for m in metrics}
    try:
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            for w in workloads:
                sides = [(0, args.base, base_spec), (1, args.head, head_spec)]
                if i % 2:
                    sides.reverse()
                for side, checkout, spec in sides:
                    got = run_side(checkout, spec, w, seed, seconds, args.size)
                    for m in metrics:
                        values[(w, m["name"])][side].append(got[m["name"]])
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    except RuntimeError as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    worse = False
    print(f"{'workload':<10} {'metric':<14} {'base median [q1, q3]':<36} "
          f"{'head median [q1, q3]':<36} {'won':>5} {'change':>8}  verdict")
    for w in workloads:
        for m in metrics:
            base, head = values[(w, m["name"])]
            r = verdict(m, base, head)
            worse = worse or r["verdict"] == "worse"
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{w:<10} {m['name']:<14} {fmt(r['base']):<36} "
                  f"{fmt(r['head']):<36} {r['head_won']:>5.0%} "
                  f"{r['change']:>+8.1%}  {r['verdict']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
