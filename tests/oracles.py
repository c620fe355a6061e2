"""Scalar reference implementations that the tests check production code against.

Each one restates a formula element by element, independent of the
vectorised code it checks: cell_position for core.cell_positions,
free_space_gain for the channel gains of propagation.build_channels,
dft_direct for the fast transform behind spectral.periodogram,
channel_estimate_pairs for the channel estimate in scenario summaries, and
the row-at-a-time csv.writer writers for the CSV that scenario.export_csv
writes from each artifact table.
"""

import csv

import numpy as np


def cell_position(geometry, n: int, m: int) -> np.ndarray:
    """3-D position (meters) of cell (n, m); grid centered on the origin."""
    if not (0 <= n < geometry.rows and 0 <= m < geometry.cols):
        raise ValueError(
            f"cell index ({n}, {m}) outside {geometry.rows}x{geometry.cols} grid")
    ox, oy, oz = geometry.origin
    return np.array([
        ox + (m - (geometry.cols - 1) / 2) * geometry.spacing,
        oy + (n - (geometry.rows - 1) / 2) * geometry.spacing,
        oz,
    ])


def free_space_gain(src, dst, wavelength: float) -> complex:
    """Spherical-wave gain (lambda / (4*pi*r)) * exp(-j*2*pi*r/lambda)."""
    r = float(np.linalg.norm(np.asarray(dst, float) - np.asarray(src, float)))
    if r == 0.0:
        raise ValueError("source and destination coincide (zero distance)")
    return (wavelength / (4.0 * np.pi * r)) * np.exp(-2j * np.pi * r / wavelength)


def dft_direct(x) -> np.ndarray:
    """O(N^2) direct DFT, the anti-regression oracle for the fast transform."""
    x = np.asarray(x, dtype=np.complex128)
    n_total = x.size
    n = np.arange(n_total)
    out = np.empty(n_total, dtype=np.complex128)
    for start in range(0, n_total, 256):  # bound the (k, n) phase matrix size
        k = np.arange(start, min(start + 256, n_total))
        out[k] = np.exp(-2j * np.pi * np.outer(k, n) / n_total) @ x
    return out


def channel_estimate_pairs(h) -> list:
    """The S x P complex matrix as nested [re, im] Python floats, per element."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in h]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_constellation(path, detected, reference) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["symbol_index", "i", "q", "ref_i", "ref_q"])
        for idx, (d, r) in enumerate(zip(detected, reference)):
            writer.writerow([idx, _fmt(d.real), _fmt(d.imag),
                             _fmt(r.real), _fmt(r.imag)])


def write_spectrum(path, spectrum) -> None:
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(spectrum.power)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["freq_hz", "power_linear", "power_db"])
        for f, p, db in zip(spectrum.frequencies, spectrum.power, power_db):
            writer.writerow([_fmt(f), _fmt(p), _fmt(db)])
