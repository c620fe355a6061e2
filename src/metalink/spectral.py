"""Power spectra of DFT bins, line powers and staircase harmonic bookkeeping.

Power normalization: a unit-amplitude tone centered on a bin carries power 1
in that bin, and the sum over all bins equals the mean square of the time
samples (Parseval). Scenario durations are arranged as integer periods of
every tone present, so lines are bin-centered and no window is needed.

A Spectrum stores its power and its bin spacing only; the bin grid is a
function of the two, formed when it is read, and bins are found by
arithmetic on it, so a kept spectrum costs one float per bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _from_envelope

__getattr__ = _from_envelope(__name__)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided-resolution power spectrum on a uniform bin grid.

    power is linear (dimensionless), one value per bin, ascending in
    frequency. The grid is not stored: bin i is centered on
    (first_bin + i) * resolution Hz from the envelope carrier, so the bins
    span (-fs/2, fs/2] for the n = len(power) bins of an fs-rate DFT.
    """

    power: np.ndarray
    resolution: float

    def __post_init__(self):
        power = np.asarray(self.power, dtype=float)
        if power.ndim != 1 or power.size == 0:
            raise ValueError("power must be a 1-D array of at least one bin")
        resolution = float(self.resolution)
        if not (math.isfinite(resolution) and resolution > 0.0):
            raise ValueError(f"resolution must be finite and > 0, not {resolution}")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "resolution", resolution)

    @property
    def first_bin(self) -> int:
        """Index k of the lowest bin, centered on k * resolution: of n DFT
        bins, those above n // 2 are the negative ones, so k = n // 2 + 1 - n."""
        n = len(self.power)
        return n // 2 + 1 - n

    @property
    def frequencies(self) -> np.ndarray:
        """Bin centers in Hz, formed on each read (a new array)."""
        first = self.first_bin
        return np.arange(first, first + len(self.power)) * self.resolution

    @property
    def total_power(self) -> float:
        return float(self.power.sum())


def power_spectrum(bins: np.ndarray, sample_rate: float) -> Spectrum:
    """The spectrum of an fs-rate signal from its n DFT bins X_k: power
    |X_k / n|^2, in ascending frequency over (-fs/2, fs/2].

    |X| is written straight into its shifted place in the power array, then
    divided and squared in place."""
    length = len(bins)
    # bins span (-fs/2, fs/2]: bins above length // 2 are the negative ones
    h = length // 2
    power = np.empty(length)
    np.abs(bins[h + 1:], out=power[:length - h - 1])
    np.abs(bins[:h + 1], out=power[length - h - 1:])
    power /= length
    power *= power
    return Spectrum(power, sample_rate / length)


def line_power(spec: Spectrum, freq: float) -> float:
    """Power at the bin centered exactly on freq (Hz offset from carrier).

    The bin is found by arithmetic, the nearest grid index clamped to the
    grid, and must lie within 1e-6 * resolution of freq. Frequencies off
    the bin grid, or not finite, are a caller error (ValueError); no
    interpolation is done.
    """
    freq = float(freq)
    if math.isfinite(freq):
        first = spec.first_bin
        k = round(min(max(freq / spec.resolution, first), first + len(spec.power) - 1))
        if abs(k * spec.resolution - freq) <= 1e-6 * spec.resolution:
            return float(spec.power[k - first])
    raise ValueError(
        f"{freq} Hz is not a bin center (resolution {spec.resolution} Hz)")


def staircase_harmonics(steps_per_period: int, harmonic_indices) -> np.ndarray:
    """Harmonic magnitudes of the unit-amplitude L-step down-ramp staircase.

    Index q refers to the basis exp(-j*2*pi*q*t/period), i.e. the line at
    frequency -q/period for the down-shifting ramp (mirror q for an
    up-shifting one). Lines lie only on the lattice q == 1 (mod L), where
    |c_q| = sin(pi/L) * L / (pi * |q|), since there sin(pi*q/L) is
    +-sin(pi/L) and no large argument is ever reduced; off it they are
    exactly 0. The desired line is q = 1 and the strongest spur q = 1 - L.
    """
    L = int(steps_per_period)
    if L < 2:
        raise ValueError("steps_per_period must be >= 2")
    q = np.asarray(harmonic_indices, dtype=np.int64)
    return np.divide(math.sin(math.pi / L) * L, np.pi * np.abs(q),
                     out=np.zeros(q.shape), where=(q - 1) % L == 0)
