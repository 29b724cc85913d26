#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload reproduce|scale|replay \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The build goes to .bench_build (dune's
own cache is off, so nothing is written outside the checkout); the
environment is pinned to the DFS_* values below and every other DFS_*
variable is removed.  Arguments are passed to perfbench/main.exe unchanged;
its exit code is this script's.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
PINNED = {"DFS_JOBS": "2", "DFS_LOG": "quiet", "DFS_SIM_SHARDS": "2"}
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def build():
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "cache")))
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DFS_")}
    env.update(PINNED)
    return env


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=pinned_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
