#!/usr/bin/env python3
"""Measured bit error rate against Es/N0, next to the closed form.

Every scheme runs on a one-stream unit channel: one cell of an identity
channel, lit with unit gain and seen by one rx point with unit gain, one
envelope sample per symbol, and 10^6 payload symbols per Es/N0 point. So
the effective gain is 1, Es is the scheme's mean symbol energy, and N0 is
channel.noise_psd.

Columns, per Es/N0 point:
  - measured: the BER that simulate reports;
  - ideal: the closed form for Gray mapping and a known channel:
    BPSK Q(sqrt(2 Es/N0)), QPSK Q(sqrt(Es/N0)), 16QAM
    (3 Q(x) + 2 Q(3x) - Q(5x)) / 4 with x = sqrt(Es / (5 N0)), and for
    8PSK the nearest-neighbour approximation (2/3) Q(sqrt(2 Es/N0) sin(pi/8));
  - given h_est (BPSK and QPSK): the closed form given the channel estimate
    that detect formed from the frame's 4 noisy pilots, with H = 1, from
    tests/test_noise_theory.py. Each bit is decided by the sign of one axis
    of g x + w, g = H / h_est and w of variance N0 / |h_est|^2, so its error
    probability is a Q-function; the measured error count has the sum of
    those as its mean, and z is its distance from that mean in standard
    deviations of the Poisson-binomial count.

The estimate from 4 pilots is what moves the measured BER away from the
ideal column, most for 16QAM, whose decisions also read the amplitude.
The script exits 1 when a BPSK or QPSK point lies more than 4 standard
deviations from its given-h_est form.

Usage:
    python scripts/ber_curve.py
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

from metalink import scenario as scen
from metalink.txrx import get_scheme

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_noise_theory import bit_error_probabilities, q_function as q  # noqa: E402

SCHEMES = ("BPSK", "QPSK", "8PSK", "16QAM")
GATED = ("BPSK", "QPSK")
Z_LIMIT = 4.0
SYMBOLS = 10 ** 6
ES_N0_DB = (0, 2, 4, 6, 8, 10)


def ideal_ber(name: str, es_n0: float) -> float:
    if name == "BPSK":
        return float(q(math.sqrt(2.0 * es_n0)))
    if name == "QPSK":
        return float(q(math.sqrt(es_n0)))
    if name == "16QAM":
        x = math.sqrt(es_n0 / 5.0)
        return float((3.0 * q(x) + 2.0 * q(3.0 * x) - q(5.0 * x)) / 4.0)
    return float(2.0 / 3.0 * q(math.sqrt(2.0 * es_n0) * math.sin(math.pi / 8.0)))


def unit_link(name: str, symbols: int, noise_psd: float) -> dict:
    return {
        "name": f"ber_{name.lower()}", "mode": "transmit_link",
        "carrier_freq_hz": 4.25e9, "control_rate_hz": 1e8, "oversample": 1,
        "rng_seed": 1,
        "geometry": {"rows": 1, "cols": 1, "spacing_m": 0.035},
        "points": [{"position_m": [0.0, 0.0, 0.5], "role": "feed"},
                   {"position_m": [0.1, 0.0, 0.5], "role": "rx"}],
        "channel": {"kind": "identity", "noise_psd": noise_psd},
        "partition": "full", "modulation": name,
        "frame": {"symbol_rate_baud": 1e8, "samples_per_symbol": 1,
                  "payload_symbols": symbols},
        "spectrum_bins": 1024,
    }


def main() -> int:
    start = time.perf_counter()
    outside = []
    print(f"{'scheme':>6} {'Es/N0 dB':>8} {'measured':>11} {'ideal':>11} "
          f"{'given h_est':>11} {'z':>6}")
    for name in SCHEMES:
        scheme = get_scheme(name)
        es = float(np.mean(np.abs(scheme.points) ** 2))
        for db in ES_N0_DB:
            es_n0 = 10.0 ** (db / 10.0)
            noise_psd = es / es_n0
            report = scen.simulate(scen.Scenario.from_dict(
                unit_link(name, SYMBOLS, noise_psd))).reports["link"]
            measured = float(report.ber[0])
            given = z = ""
            if name in GATED:
                # one sample per symbol: each mean carries variance N0
                p = bit_error_probabilities(report, np.ones((1, 1)), noise_psd)
                sigma = math.sqrt(float(np.sum(p * (1.0 - p))))
                score = (measured * p.size - p.sum()) / sigma
                given, z = f"{p.mean():11.4e}", f"{score:6.2f}"
                if not abs(score) <= Z_LIMIT:
                    outside.append(f"{name} at {db:g} dB: z = {score:.2f}")
            print(f"{name:>6} {db:8.1f} {measured:11.4e} {ideal_ber(name, es_n0):11.4e} "
                  f"{given:>11} {z:>6}", flush=True)
    print(f"{len(SCHEMES) * len(ES_N0_DB)} points of {SYMBOLS} symbols "
          f"in {time.perf_counter() - start:.1f} s")
    if outside:
        print(f"outside the {Z_LIMIT:g} sigma band: " + "; ".join(outside), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
