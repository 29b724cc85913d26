#!/usr/bin/env python3
"""Regenerate perfbench/references.json from the current build.

    python3 perfbench/record_references.py

Runs every workload once per run seed (0-10 at full size, 0-3 at the tiny
size the self-tests use), as the benchmark runs it (same
--seconds, so the same inputs), with no references loaded.  It keeps each
pass's output digest and, for reproduce, the number of claims inside their
band, keyed by input seed.  Only run it when the program's outputs are meant
to change: the references are what every later run is checked against.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

OUT = os.path.join("perfbench", "references.json")
FULL_SEEDS = range(0, 11)
TINY_SEEDS = range(0, 4)
PASS = re.compile(r"pass \d+ \(input (\d+)\):.* digest ([0-9a-f]{8}), claims ([0-9]+|-),")


def record(size, workload, seed, seconds, refs_path):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--size", size, "--references", refs_path, "--verbose"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    found = PASS.findall(done.stdout)
    if done.returncode != 0 or not found:
        sys.exit(f"{size} {workload} seed {seed}: run failed\n{done.stdout}")
    entries = {}
    for input_seed, digest, claims in found:
        entry = {"digest": digest}
        if claims != "-":
            entry["claims_reproduced"] = int(claims)
        entries[input_seed] = entry
    return entries


def main():
    with open(OUT) as f:
        old = json.load(f)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        f.write("{}")
        empty = f.name
    new = {k: v for k, v in old.items() if k not in ("full", "tiny")}
    try:
        for size, run_seeds, seconds in (("full", FULL_SEEDS, spec["run_seconds"]),
                                         ("tiny", TINY_SEEDS, 1)):
            new[size] = {}
            for w in workloads:
                new[size][w] = {}
                for s in run_seeds:
                    got = record(size, w, s, seconds, empty)
                    new[size][w].update(got)
                    print(f"{size} {w} seed {s}: {len(got)} inputs", flush=True)
    finally:
        os.unlink(empty)
    with open(OUT, "w") as f:
        json.dump(new, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
