"""Periodogram spectrum estimation and staircase harmonic bookkeeping.

Power normalization: a unit-amplitude tone centered on a bin carries power 1
in that bin, and the sum over all bins equals the mean square of the time
samples (Parseval). Scenario durations are arranged as integer periods of
every tone present, so lines are bin-centered and no window is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ComplexEnvelope


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided-resolution power spectrum on a uniform bin grid.

    frequencies are offsets from the envelope carrier, ascending, spanning
    (-fs/2, fs/2]; power is linear (dimensionless).
    """

    frequencies: np.ndarray
    power: np.ndarray
    resolution: float

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        power = np.asarray(self.power, dtype=float)
        if freqs.shape != power.shape or freqs.ndim != 1:
            raise ValueError("frequencies and power must be matching 1-D arrays")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "power", power)

    @property
    def total_power(self) -> float:
        return float(self.power.sum())


def periodogram(env: ComplexEnvelope, dft_length: int | None = None) -> Spectrum:
    """Rectangular-window periodogram of the first dft_length samples."""
    n_total = len(env)
    length = n_total if dft_length is None else int(dft_length)
    if length < 2:
        raise ValueError("dft_length must be >= 2")
    if length > n_total:
        raise ValueError(f"dft_length {length} exceeds sample count {n_total}")
    spectrum = np.fft.fft(env.samples[:length])
    power = (np.abs(spectrum) / length) ** 2
    k = np.arange(length)
    k[k > length // 2] -= length  # bins span (-fs/2, fs/2]
    order = np.argsort(k, kind="stable")
    resolution = env.sample_rate / length
    return Spectrum(k[order] * resolution, power[order], resolution)


def line_power(spec: Spectrum, freq: float) -> float:
    """Power at the bin centered exactly on freq (Hz offset from carrier).

    Frequencies off the bin grid are a caller error; no interpolation is done.
    """
    distances = np.abs(spec.frequencies - freq)
    idx = int(np.argmin(distances))
    if distances[idx] > 1e-6 * spec.resolution:
        raise ValueError(
            f"{freq} Hz is not a bin center (resolution {spec.resolution} Hz)")
    return float(spec.power[idx])


def staircase_harmonics(steps_per_period: int, harmonic_indices) -> np.ndarray:
    """Harmonic magnitudes of the unit-amplitude L-step down-ramp staircase.

    Index q refers to the basis exp(-j*2*pi*q*t/period), i.e. the line at
    frequency -q/period for the down-shifting ramp (mirror q for an
    up-shifting one). Lines are nonzero only for q == 1 (mod L); the desired
    line is q = 1 and the strongest spur q = 1 - L. Values come from the
    exact per-step Fourier integral of one held period.
    """
    L = int(steps_per_period)
    if L < 2:
        raise ValueError("steps_per_period must be >= 2")
    q = np.asarray(harmonic_indices, dtype=np.int64)
    steps = np.exp(-2j * np.pi * np.arange(L) / L)
    out = np.empty(q.shape, dtype=float)
    for i, qi in np.ndenumerate(q):
        if qi == 0:
            out[i] = abs(np.sum(steps)) / L
            continue
        edges = np.exp(2j * np.pi * qi * np.arange(L + 1) / L)
        coeff = np.sum(steps * (edges[1:] - edges[:-1])) / (2j * np.pi * qi)
        out[i] = abs(coeff)
    return out
