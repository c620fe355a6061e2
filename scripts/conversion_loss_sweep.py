#!/usr/bin/env python3
"""Conversion loss of the staircase frequency shifter versus step count.

For an L-step ramp the desired shifted line carries sin(pi/L)/(pi/L) of the
phasor amplitude; the rest leaks into harmonics at indices 1 mod L. This
sweep measures the loss from a simulated staircase and compares it with the
closed form, printing one row per L (optionally as CSV).

Usage:
    python scripts/conversion_loss_sweep.py [--steps 2 4 8 20 64] [--csv out.csv]
"""

import argparse
import csv

import numpy as np

from metalink.core import tone_envelope
from metalink.metasurface import StaircaseRampSpec, compile_staircase
from metalink.propagation import ChannelSet, surface_pass
from metalink.spectral import line_power, periodogram, staircase_harmonics


def measure_loss_db(L, oversample=256, periods=8):
    spec = StaircaseRampSpec(period=L * 1e-8, steps_per_period=L)
    sched = compile_staircase(spec, 1e8, duration=periods * L * 1e-8)
    env = tone_envelope(sched.num_steps * oversample, oversample * 1e8, 0.0)
    unit_cell = ChannelSet(np.ones(1), np.ones((1, 1)))  # 1x1 surface, unit gains
    spectrum = periodogram(surface_pass(env, sched, [0], unit_cell)[0])
    fraction = line_power(spectrum, spec.frequency_shift) / spectrum.total_power
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
