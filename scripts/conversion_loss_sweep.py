#!/usr/bin/env python3
"""Conversion loss of the staircase frequency shifter versus step count.

For an L-step ramp the desired shifted line carries sin(pi/L)/(pi/L) of the
phasor amplitude; the rest leaks into harmonics at indices 1 mod L. This
sweep measures the loss with simulate, on the bundled sdc_5mhz scenario
with an identity channel and an L-step ramp at the 100 MHz control rate,
from the shifted line's share of the output power (its harmonic table's
row 1). It compares the loss with the closed form, printing one row per L
(optionally as CSV).

Usage:
    python scripts/conversion_loss_sweep.py [--steps 2 4 8 20 64] [--csv out.csv]
"""

import argparse
import csv

import numpy as np

from metalink import Scenario, load_scenario, simulate
from metalink.schema import apply_overrides
from metalink.spectral import staircase_harmonics


def measure_loss_db(L, oversample=256, periods=8):
    data = apply_overrides(load_scenario("sdc_5mhz"), {
        "channel.kind": "identity", "staircase.steps_per_period": L,
        "staircase.period_s": L * 1e-8, "oversample": oversample,
        "sdc_periods": periods})
    harmonics = simulate(Scenario.from_dict(data)).summary["harmonics"]
    fraction = next(row["power_fraction"] for row in harmonics
                    if row["harmonic_index"] == 1)
    strongest_spur = staircase_harmonics(L, [1 - L])[0]
    return -10 * np.log10(fraction), strongest_spur


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, nargs="+",
                        default=[2, 4, 8, 20, 64])
    parser.add_argument("--csv", default=None, help="also write rows to CSV")
    args = parser.parse_args()

    rows = []
    print(f"{'L':>4s} {'loss (dB)':>12s} {'closed form':>12s} {'worst spur':>12s}")
    for L in args.steps:
        measured_db, spur = measure_loss_db(L)
        closed_db = -20 * np.log10(np.sin(np.pi / L) / (np.pi / L))
        print(f"{L:4d} {measured_db:12.6f} {closed_db:12.6f} {spur:12.6f}")
        rows.append((L, measured_db, closed_db, spur))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["steps", "measured_loss_db", "closed_form_db",
                             "strongest_spur_amplitude"])
            writer.writerows(rows)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
