"""Time-varying reflection control of the unit-cell grid.

Implements the staircase phase ramp for frequency translation, as the L
coefficients of its period (ramp_period), and finite-resolution
coefficient quantization. A down-shifting ramp with
period T moves a tone by -1/T; the L-step staircase approximation
concentrates sin(pi/L)/(pi/L) of the phasor amplitude at that line and
spreads the remainder over harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, ConfigurationError, _from_envelope, wrap_phase

__getattr__ = _from_envelope(__name__)


@dataclass(frozen=True)
class QuantizationModel:
    """Finite-resolution coefficient control; None means continuous.

    Quantized phases are {phase_offset + 2*pi*k/L : k < phase_levels};
    quantized amplitudes are uniform on [0, 1]. Nearest level wins, with
    exact ties broken toward the lower level index.
    """

    phase_levels: int | None = None
    amplitude_levels: int | None = None
    phase_offset: float = 0.0

    def __post_init__(self):
        for name in ("phase_levels", "amplitude_levels"):
            levels = getattr(self, name)
            if levels is not None and levels < 1:
                raise ConfigurationError(f"{name} must be None or >= 1")
        object.__setattr__(self, "phase_offset", wrap_phase(float(self.phase_offset)))

    @property
    def is_continuous(self) -> bool:
        return self.phase_levels is None and self.amplitude_levels is None


CONTINUOUS = QuantizationModel()


@dataclass(frozen=True)
class StaircaseRampSpec:
    """L-step staircase approximation of a time-linear phase ramp.

    period is the time for a full 2*pi phase sweep; direction is the sign of
    the induced frequency shift (-1, the default, shifts down by 1/period).
    """

    period: float
    steps_per_period: int
    direction: int = -1
    amplitude: float = 1.0

    def __post_init__(self):
        if self.period <= 0:
            raise ConfigurationError("staircase period must be positive")
        if self.steps_per_period < 2:
            raise ConfigurationError("staircase needs at least 2 steps per period")
        if self.direction not in (-1, 1):
            raise ConfigurationError("direction must be -1 (down) or +1 (up)")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ConfigurationError("staircase amplitude must lie in [0, 1]")

    @property
    def frequency_shift(self) -> float:
        """Induced shift in Hz: direction / period."""
        return self.direction / self.period


def ramp_period(spec: StaircaseRampSpec) -> np.ndarray:
    """The L values of one period of the staircase, each held for one
    control step: value m is spec.amplitude * exp(j * direction * 2*pi*m/L),
    so the phase steps linearly through 2*pi a period, at magnitude at most 1.
    """
    L = spec.steps_per_period
    return spec.amplitude * np.exp(1j * (spec.direction * TWO_PI * np.arange(L) / L))


def _quantize_phases(phases: np.ndarray, levels: int, offset: float) -> np.ndarray:
    if levels == 1:
        return np.full_like(phases, wrap_phase(offset))
    # grid coordinate in level units; exact half-integers are the tie cases
    u = np.mod((phases - offset) * levels / TWO_PI, levels)
    base = np.floor(u)
    frac = u - base
    lower = base.astype(np.int64) % levels
    upper = (lower + 1) % levels
    k = np.where(frac < 0.5, lower,
                 np.where(frac > 0.5, upper, np.minimum(lower, upper)))
    return wrap_phase(offset + TWO_PI * k / levels)


def _quantize_amplitudes(amplitudes: np.ndarray, levels: int) -> np.ndarray:
    if levels == 1:
        return np.zeros_like(amplitudes)
    v = amplitudes * (levels - 1)
    k = np.clip(np.ceil(v - 0.5), 0, levels - 1)  # ceil(v - 1/2): ties go down
    return k / (levels - 1)


def quantize_values(values: np.ndarray, model: QuantizationModel) -> np.ndarray:
    """Snap complex coefficients A * exp(j*phi) to the nearest levels.

    Phase distance is circular, amplitude distance Euclidean; exact ties go
    to the lower level index. Amplitudes above 1 are clipped to 1 first, so
    every quantized value lies within the unit circle. Continuous models
    return the input unchanged.
    """
    if model.is_continuous:
        return values
    amplitudes = np.minimum(np.abs(values), 1.0)
    phases = wrap_phase(np.angle(values))
    if model.phase_levels is not None:
        phases = _quantize_phases(phases, model.phase_levels, model.phase_offset)
    if model.amplitude_levels is not None:
        amplitudes = _quantize_amplitudes(amplitudes, model.amplitude_levels)
    return amplitudes * np.exp(1j * phases)
