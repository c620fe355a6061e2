"""The envelope-level API: whole complex-baseband waveforms and
coefficient schedules, driven through the surface one envelope at a time,
for the acceptance gate and the tests. simulate never reaches it: it
multiplies per-stream coefficient tables, such as one ramp period
(metasurface.ramp_period), by stream_gains and forms its spectra from DFT
bins. FORMER_HOMES lists the module each name was first defined in, which
still serves it (core._from_envelope) and loads this module at the first
such read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, ContractViolation, SurfaceGeometry, cell_axes
from .metasurface import StaircaseRampSpec, ramp_period
from .propagation import ChannelSet, stream_gains
from .spectral import Spectrum, power_spectrum
from .txrx import ModulationScheme

FORMER_HOMES = {
    "core": ("ComplexEnvelope", "tone_envelope", "cell_positions", "_hold_ratio",
             "resample_hold", "CoefficientSchedule"),
    "propagation": ("surface_pass",),
    "metasurface": ("frequency_shift", "compile_staircase"),
    "spectral": ("periodogram",),
    "txrx": ("map_bits", "bit_words"),
}


@dataclass(frozen=True, eq=False)
class ComplexEnvelope:
    """Uniformly sampled complex baseband waveform around a reference carrier.

    samples are dimensionless field amplitudes; sample_rate and carrier_freq
    are in Hz. Sample i lies at time i / sample_rate.
    """

    samples: np.ndarray
    sample_rate: float
    carrier_freq: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("envelope samples must form a non-empty 1-D array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def with_samples(self, samples) -> "ComplexEnvelope":
        """New envelope with the same rates but different samples."""
        return ComplexEnvelope(samples, self.sample_rate, self.carrier_freq)


def tone_envelope(num_samples: int, sample_rate: float, carrier_freq: float,
                  freq_offset: float = 0.0) -> ComplexEnvelope:
    """Unit complex exponential at `freq_offset` from the carrier.

    At freq_offset 0, the feed's tone, the samples are a read-only broadcast
    view of one value, so a carrier of any length allocates nothing.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if freq_offset == 0.0:
        samples = np.broadcast_to(np.complex128(1.0), (num_samples,))
    else:
        samples = np.exp(2j * np.pi * freq_offset * np.arange(num_samples) / sample_rate)
    return ComplexEnvelope(samples, sample_rate, carrier_freq)


@dataclass(frozen=True, eq=False)
class CoefficientSchedule:
    """Per-stream piecewise-constant reflection coefficients at their update rate.

    values has shape (num_streams, num_steps); every cell of stream s holds
    row s, and each value is held for 1 / control_rate seconds (zero-order
    hold). control_rate is the rate the values change at: the DAC rate for a
    staircase, the symbol rate for a transmit frame. A per-cell schedule is
    the case of one stream per cell. Each coefficient A * exp(j*phi) is a
    plain complex number with A <= 1, which the makers of the values keep
    (scheme points, quantize_values, the staircase); none is checked here.
    """

    values: np.ndarray
    control_rate: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("schedule values must form a non-empty 2-D array")
        if self.control_rate <= 0:
            raise ValueError("control_rate must be positive")
        object.__setattr__(self, "values", values)

    @property
    def num_steps(self) -> int:
        return self.values.shape[1]


def compile_staircase(spec: StaircaseRampSpec, control_rate: float,
                      duration: float) -> CoefficientSchedule:
    """One-stream schedule of the staircase's period (metasurface.ramp_period)
    repeated for the duration, one control sample a step.

    Requires control_rate * period == steps_per_period exactly (one control
    sample per step); fractional ratios are rejected so spectra stay
    bit-reproducible.
    """
    L = spec.steps_per_period
    samples_per_period = control_rate * spec.period
    if abs(samples_per_period - L) > 1e-9 * L:
        raise ConfigurationError(
            f"control_rate * period = {samples_per_period} must equal "
            f"steps_per_period = {L} (integer samples per period)")
    num_steps = int(round(control_rate * duration))
    if num_steps < 1:
        raise ConfigurationError("duration too short for one control sample")
    return CoefficientSchedule(ramp_period(spec)[np.arange(num_steps) % L][np.newaxis],
                               control_rate)


def cell_positions(geometry: SurfaceGeometry) -> np.ndarray:
    """All cell positions, shape (num_cells, 3), row-major from lower-left,
    formed from core.cell_axes on each call."""
    x, y, z = cell_axes(geometry)
    return np.stack(np.broadcast_arrays(x, y[:, np.newaxis], z), -1).reshape(-1, 3)


def _hold_ratio(rate: float, target_rate: float) -> int | None:
    """target_rate / rate when it is a whole number >= 1 (within 1e-9), else None."""
    ratio_f = target_rate / rate
    ratio = int(round(ratio_f))
    if ratio < 1 or abs(ratio_f - ratio) > 1e-9 * ratio_f:
        return None
    return ratio


def resample_hold(schedule: CoefficientSchedule, target_rate: float) -> CoefficientSchedule:
    """Zero-order-hold resampling of a schedule to an integer multiple rate.

    Each coefficient is repeated target_rate / control_rate times; fractional
    ratios are rejected rather than interpolated. surface_pass holds each
    step itself; this is the explicit form of the same hold.
    """
    ratio = _hold_ratio(schedule.control_rate, target_rate)
    if ratio is None:
        raise ConfigurationError(
            f"target_rate must be an integer multiple of control_rate "
            f"(got ratio {target_rate / schedule.control_rate})")
    if ratio == 1:
        return schedule
    return CoefficientSchedule(np.repeat(schedule.values, ratio, axis=1), target_rate)


def surface_pass(incident: ComplexEnvelope, schedule: CoefficientSchedule,
                 stream_of_cell, channels: ChannelSet) -> list:
    """Noiseless received envelope at every observation point, in channel order.

    The chain is linear and narrowband, so each point sees rx_p = incident *
    sum_s G[s, p] * w_s, G the effective per-stream gains of stream_gains,
    at a cost of O(streams x samples) whatever the cell count.

    The schedule may run at any rate that divides the envelope rate a whole
    number of times, hold = sample_rate / control_rate; each of its steps
    covers hold envelope samples (zero-order hold), so
    rx_p[n] = incident[n] * sum_s G[s, p] * w_s[n // hold], one whole-array
    multiply on the weights G.T @ schedule.values, and the schedule is never
    expanded to the envelope rate. Its steps must cover the envelope
    exactly, and stream_of_cell must give each cell a schedule row; either
    mismatch is a ContractViolation. Gains so large that the received power
    would overflow are a ConfigurationError.
    """
    hold = _hold_ratio(schedule.control_rate, incident.sample_rate)
    if hold is None:
        raise ContractViolation(
            f"envelope rate {incident.sample_rate} Hz is not a whole multiple of "
            f"schedule rate {schedule.control_rate} Hz")
    if schedule.num_steps * hold != len(incident):
        raise ContractViolation(
            f"schedule covers {schedule.num_steps} x {hold} samples, envelope "
            f"has {len(incident)}")
    gains = stream_gains(stream_of_cell, len(schedule.values), channels)
    weights = gains.T @ schedule.values
    rx = incident.samples.reshape(-1, hold) * weights[:, :, np.newaxis]
    return [incident.with_samples(row) for row in rx.reshape(channels.num_points, -1)]


def periodogram(env: ComplexEnvelope) -> Spectrum:
    """Rectangular-window periodogram of the whole envelope, the
    power_spectrum of its DFT; a caller that wants fewer bins passes the
    samples it wants."""
    return power_spectrum(np.fft.fft(env.samples), env.sample_rate)


def frequency_shift(envelope: ComplexEnvelope, shift_hz: float) -> ComplexEnvelope:
    """Ideal continuous-phase ramp: exact frequency translation by shift_hz.

    The ramp is referenced to the first sample, matching a schedule that
    starts at the envelope start: the limit of a staircase of many steps.
    """
    n = np.arange(len(envelope))
    ramp = np.exp(2j * np.pi * shift_hz * n / envelope.sample_rate)
    return envelope.with_samples(envelope.samples * ramp)


def map_bits(bits, scheme: ModulationScheme) -> np.ndarray:
    """Gray-map a bit sequence to constellation points, MSB-first per symbol."""
    return scheme.points[bit_words(bits, scheme)]


def bit_words(bits, scheme: ModulationScheme) -> np.ndarray:
    """The bit words of a bit sequence, MSB-first per symbol: map_bits's point
    indices. A bit other than 0 or 1 (0.5, NaN) is refused before any cast."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError("bits must be 1-D")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bits must be 0 or 1")
    b = scheme.bits_per_symbol
    if bits.size % b != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {b}")
    weights = scheme.word_weights  # uint8 bits are read without a wider copy
    return bits.astype(weights.dtype, copy=False).reshape(-1, b) @ weights
