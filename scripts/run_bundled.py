#!/usr/bin/env python3
"""Run every bundled scenario and print a one-line result summary for each.

Usage:
    python scripts/run_bundled.py [--out results] [--seed N]
"""

import argparse
import time

from metalink.scenario import run_scenario
from metalink.schema import bundled_scenario_names


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    args = parser.parse_args()
    overrides = {} if args.seed is None else {"rng_seed": args.seed}

    for name in bundled_scenario_names():
        start = time.perf_counter()
        result = run_scenario(name, f"{args.out}/{name}", overrides=overrides)
        elapsed = time.perf_counter() - start
        parts = [f"{name:18s} {elapsed:6.2f} s"]
        for key, entry in result.summary["reports"].items():
            if entry["evm_percent"]:
                evm = max(entry["evm_percent"])
                worst_ber = max(entry["ber"])
                parts.append(f"{key}: EVM {evm:.3g}% BER {worst_ber:g}")
        if "strongest_line_hz" in result.summary:
            parts.append(f"line {result.summary['strongest_line_hz'] / 1e6:+g} MHz")
        print("  ".join(parts))


if __name__ == "__main__":
    main()
