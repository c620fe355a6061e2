"""Power spectra of DFT bins, line powers and staircase harmonic bookkeeping.

Power normalization: a unit-amplitude tone centered on a bin carries power 1
in that bin, and the sum over all bins equals the mean square of the time
samples (Parseval). Scenario durations are arranged as integer periods of
every tone present, so lines are bin-centered and no window is needed.

A Spectrum stores the power of the bins on its lattice, every stride-th bin
counted from 0 Hz, and its bin spacing; every other bin is exactly 0. The
bin grid and the dense power are functions of the three, formed when they
are read, and bins are found by arithmetic on them, so a kept spectrum
costs one float per lattice bin: per bin at stride 1, one float in all for
a single tone.
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

    Of the n = len(values) * stride bins, ascending in frequency, bin k is
    centered on k * resolution Hz from the envelope carrier, for
    first_bin <= k < first_bin + n, so the bins span (-fs/2, fs/2] for the n
    bins of an fs-rate DFT. The grid is not stored. values holds the linear
    (dimensionless) power of the bins k = 0 (mod stride), ascending, and
    every other bin is exactly 0: stride 1 is a dense spectrum, and stride n
    a single line at 0 Hz.
    """

    values: np.ndarray
    resolution: float
    stride: int = 1

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a 1-D array of at least one bin")
        resolution = float(self.resolution)
        if not (math.isfinite(resolution) and resolution > 0.0):
            raise ValueError(f"resolution must be finite and > 0, not {resolution}")
        stride = int(self.stride)
        if stride != self.stride or stride < 1:
            raise ValueError(f"stride must be an integer >= 1, not {self.stride}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "stride", stride)

    @property
    def num_bins(self) -> int:
        return len(self.values) * self.stride

    @property
    def first_bin(self) -> int:
        """Index k of the lowest bin, centered on k * resolution: of n DFT
        bins, those above n // 2 are the negative ones, so k = n // 2 + 1 - n."""
        n = self.num_bins
        return n // 2 + 1 - n

    @property
    def first_line(self) -> int:
        """Index k of the bin values[0] holds: the lowest multiple of stride
        on the grid. Of any n = len(values) * stride consecutive bins, exactly
        len(values) are multiples of stride."""
        return -(-self.first_bin // self.stride) * self.stride

    @property
    def power(self) -> np.ndarray:
        """The power of every bin: values itself at stride 1, else a new
        dense array, 0 off the lattice, formed on each read."""
        if self.stride == 1:
            return self.values
        power = np.zeros(self.num_bins)
        power[self.first_line - self.first_bin::self.stride] = self.values
        return power

    @property
    def frequencies(self) -> np.ndarray:
        """Bin centers in Hz, formed on each read (a new array)."""
        first = self.first_bin
        return np.arange(first, first + self.num_bins) * self.resolution

    @property
    def total_power(self) -> float:
        # numpy's pairwise sum over the dense bins: a sum of values alone
        # adds in another order and may round differently
        return float(self.power.sum())


def power_spectrum(bins: np.ndarray, sample_rate: float, repeat: int = 1) -> Spectrum:
    """The spectrum of an fs-rate signal x of n = len(bins) * repeat
    samples, each of whose samples y[m] = x[repeat * m] is held for repeat
    samples, x[repeat * m + s] = y[m] for s < repeat, from the M = len(bins)
    DFT bins Y_k of y: power |X_k / n|^2, in ascending frequency over
    (-fs/2, fs/2].

    X_k = Y[k mod M] * sum_{s < repeat} exp(-2j*pi*k*s/n), so the power is
    |Y[k mod M] / n|^2 times the hold's Fejer kernel
    sin^2(pi*k/M) / sin^2(pi*k/n), repeat^2 at k = 0 and 0 at the other
    multiples of M. repeat 1 takes |X_k / n|^2 of the bins themselves.

    |Y| is written straight into its shifted place in the power array's
    first M bins, then divided and squared in place; with repeat > 1 it
    is multiplied by the kernel's numerator there, repeated over the other
    bins and divided by the denominator, both from one table of _sines."""
    size = len(bins)
    length = size * repeat
    # bins span (-fs/2, fs/2]: bins above length // 2 are the negative ones,
    # so power[i] is bin k = i + h + 1 mod length
    h = length // 2
    shift = (h + 1) % size
    power = np.empty(length)
    np.abs(bins[shift:], out=power[:size - shift])
    np.abs(bins[:shift], out=power[size - shift:size])
    power[:size] /= length
    power[:size] *= power[:size]
    if repeat > 1:
        period = power[:size]
        zero = period[(size - shift) % size]  # bin 0's |Y_0 / n|^2
        sines = _sines(length, h + 1)
        # sin(pi*j/M) = sines[j * repeat] for j <= M / 2, and sin^2(pi*j/M)
        # is symmetric in j -> M - j; j = k mod M = i + shift mod M here
        numerator = np.empty(size)
        numerator[:size // 2 + 1] = sines[::repeat]
        numerator[size // 2 + 1:] = numerator[(size + 1) // 2 - 1:0:-1]
        numerator *= numerator
        period[:size - shift] *= numerator[shift:]
        period[size - shift:] *= numerator[:shift]
        power[size:].reshape(repeat - 1, size)[...] = period
        # bin k = +-m sits at power[centre +- m]: divide both halves by
        # sin^2(pi*m/n), and give bin 0 its kernel repeat^2
        centre = length - h - 1
        sines *= sines
        sines[0] = 1.0
        power[centre:] /= sines
        power[:centre + 1] /= sines[centre::-1]
        power[centre] = zero * repeat * repeat
    return Spectrum(power, sample_rate / length)


def _sines(n: int, stop: int) -> np.ndarray:
    """sin(pi*m/n) for m < stop <= n // 2 + 1, from O(sqrt(stop)) sines and
    cosines: with m = r*b + c, c < b, each is
    sin(pi*r*b/n) cos(pi*c/n) + cos(pi*r*b/n) sin(pi*c/n), one product of a
    (rows x 2) and a (2 x b) table. Both angles lie in [0, pi/2], so every
    term is >= 0 and the sum loses no digits."""
    b = math.isqrt(stop - 1) + 1
    coarse = np.pi / n * (np.arange(-(-stop // b)) * b)
    fine = np.pi / n * np.arange(b)
    table = np.stack([np.sin(coarse), np.cos(coarse)], 1) @ np.stack([np.cos(fine),
                                                                      np.sin(fine)])
    return table.reshape(-1)[:stop]


def line_power(spec: Spectrum, freq: float) -> float:
    """Power at the bin centered exactly on freq (Hz offset from carrier).

    The bin is found by arithmetic, the nearest grid index clamped to the
    grid, and must lie within 1e-6 * resolution of freq; a bin off the
    lattice reads 0.0. Frequencies off the bin grid, or not finite, are a
    caller error (ValueError); no interpolation is done.
    """
    freq = float(freq)
    if math.isfinite(freq):
        first = spec.first_bin
        k = round(min(max(freq / spec.resolution, first), first + spec.num_bins - 1))
        if abs(k * spec.resolution - freq) <= 1e-6 * spec.resolution:
            if k % spec.stride:
                return 0.0
            return float(spec.values[(k - spec.first_line) // spec.stride])
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
