"""Shared constants, errors, geometry and point types used across the simulator.

All RF quantities live in complex baseband, referenced to an explicit
carrier frequency. Instances of the types below are treated as immutable
values after construction; no operation in this package mutates its inputs
but write_artifacts, which adds an artifacts list to the result's summary.
The envelope-level names first defined here, the waveform and the
coefficient schedule among them, are served from envelope (_from_envelope).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0
TWO_PI = 2.0 * np.pi
# noise values drawn, or .npy table rows written, at a time; a writer's
# block (24 or 40 bytes a row) and its block-sized temporaries must stay
# below a small run's own transient peak, or writing sets the run's peak
BLOCK = 16384


class ConfigurationError(ValueError):
    """A statically invalid configuration (rates, dimensions, scenario fields)."""


class ContractViolation(ValueError):
    """Data handed between pipeline stages does not satisfy the stage contract."""


def wrap_phase(phase):
    """Reduce an angle in radians (scalar or array) to [0, 2*pi)."""
    wrapped = np.mod(np.asarray(phase, dtype=float), TWO_PI)
    # np.mod can land on exactly 2*pi for tiny negative inputs; fold the seam
    wrapped = np.where(wrapped >= TWO_PI, 0.0, wrapped)
    if np.ndim(phase) == 0:
        return float(wrapped)
    return wrapped


def read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only: the value of a table that every caller shares."""
    array.flags.writeable = False
    return array


def wavelength_of(frequency_hz: float) -> float:
    """Free-space wavelength in meters for a given frequency."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency_hz


def _from_envelope(module: str):
    """module's __getattr__: its envelope.FORMER_HOMES names, from envelope."""
    def __getattr__(name):
        if not name.startswith("__"):  # a dunder probe loads nothing
            from . import envelope
            if name in envelope.FORMER_HOMES[module.rpartition(".")[2]]:
                return getattr(envelope, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    return __getattr__


__getattr__ = _from_envelope(__name__)


@dataclass(frozen=True)
class SurfaceGeometry:
    """N x M unit-cell grid with uniform pitch.

    The surface lies in the x-y plane of its frame with outward normal +z;
    the grid is centered on `origin`. Cells are indexed row-major from the
    lower-left cell: flat index = n * cols + m.
    """

    rows: int
    cols: int
    spacing: float
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("geometry needs rows >= 1 and cols >= 1")
        if self.spacing <= 0:
            raise ConfigurationError("cell spacing must be positive")
        # + 0.0 stores -0.0 as 0.0, so equal geometries have equal cells
        origin = tuple(float(v) + 0.0 for v in self.origin)
        if len(origin) != 3:
            raise ConfigurationError("origin must be a 3-D point")
        object.__setattr__(self, "origin", origin)

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols


def cell_axes(geometry: SurfaceGeometry) -> tuple:
    """(x of each column, y of each row, z): cell (n, m) lies at (x[m], y[n], z)."""
    ox, oy, oz = geometry.origin
    x = ox + (np.arange(geometry.cols) - (geometry.cols - 1) / 2) * geometry.spacing
    y = oy + (np.arange(geometry.rows) - (geometry.rows - 1) / 2) * geometry.spacing
    return x, y, oz


@dataclass(frozen=True, eq=False)
class PointSet:
    """Tagged 3-D observation/feed points (meters).

    Roles are free-form tags; the propagation module treats the single point
    tagged "feed" as the illuminating antenna and every other point as an
    observation point. Points must not coincide with any cell position.
    """

    positions: np.ndarray
    roles: tuple

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] == 0:
            raise ValueError("positions must form a non-empty (P, 3) array")
        roles = tuple(str(r) for r in self.roles)
        if len(roles) != positions.shape[0]:
            raise ValueError("one role per point required")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "roles", roles)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def indices_with_role(self, role: str) -> list:
        return [i for i, r in enumerate(self.roles) if r == role]
