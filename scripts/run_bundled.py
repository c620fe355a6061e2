#!/usr/bin/env python3
"""Run every bundled scenario through `metalink run`, which prints its
results, and print each run's time. Exits with the first failed run's code.

Usage:
    python scripts/run_bundled.py [--out results] [--seed N]
"""

import argparse
import sys
import time

from metalink import cli
from metalink.schema import bundled_scenario_names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    args = parser.parse_args()
    seed = [] if args.seed is None else ["--seed", str(args.seed)]

    status = 0
    for name in bundled_scenario_names():
        start = time.perf_counter()
        code = cli.main(["run", name, "--out-dir", f"{args.out}/{name}", *seed])
        print(f"{name}: {time.perf_counter() - start:.2f} s")
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
