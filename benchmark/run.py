#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds benchmark/main.exe from source
with dune, then runs it with the same arguments; the last line of
standard output is its JSON result.  Build output goes to standard
error.  Exits non-zero without printing a result when the build or the
run fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "benchmark", "main.exe")
RUN_TIMEOUT_S = 170


def main(argv):
    # The dune cache lives outside the checkout; keep every build product
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./benchmark/main.exe"],
            stdout=sys.stderr,
            env=env,
            check=False,
        )
    except OSError as e:
        print(f"run.py: cannot start dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE] + argv, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
