"""Feed-to-cell and cell-to-point channels, and per-stream effective gains.

Channels are narrowband: one complex gain per (source, destination) pair,
valid across the whole envelope bandwidth. The free-space model is the
scalar spherical wave (lambda / (4*pi*r)) * exp(-j*2*pi*r/lambda) with no
element pattern or polarization. The surface is passive and this module is
noiseless: receiver noise is drawn where the receiver reads it (scenario).

stream_gains sums each stream's cells into one gain a point; a pass is the
product of those gains with its per-stream coefficient table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    ContractViolation,
    PointSet,
    SurfaceGeometry,
    _from_envelope,
    cell_axes,
)

__getattr__ = _from_envelope(__name__)
CHANNEL_KINDS = ("identity", "free_space", "explicit_matrix")


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """How complex gains between cells and points are produced.

    kind "identity" gives unit gains, "free_space" the spherical-wave model,
    "explicit_matrix" copies a user matrix of shape (num_cells, num_points).
    """

    kind: str
    wavelength: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigurationError(f"unknown channel kind {self.kind!r}")
        if self.kind == "free_space" and (self.wavelength is None or self.wavelength <= 0):
            raise ConfigurationError("free_space channel needs wavelength > 0")
        if self.kind == "explicit_matrix":
            if self.matrix is None:
                raise ConfigurationError("explicit_matrix channel needs a matrix")
            matrix = np.asarray(self.matrix, dtype=np.complex128)
            if matrix.ndim != 2:
                raise ConfigurationError("channel matrix must be 2-D (cells x points)")
            object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Complex gains: feed antenna -> cells, and cells -> observation points."""

    feed_gains: np.ndarray
    obs_gains: np.ndarray

    def __post_init__(self):
        feed = np.asarray(self.feed_gains, dtype=np.complex128)
        obs = np.asarray(self.obs_gains, dtype=np.complex128)
        if feed.ndim != 1 or obs.ndim != 2 or obs.shape[0] != feed.shape[0]:
            raise ValueError("feed_gains must be (C,), obs_gains (C, P)")
        object.__setattr__(self, "feed_gains", feed)
        object.__setattr__(self, "obs_gains", obs)

    @property
    def num_cells(self) -> int:
        return self.feed_gains.shape[0]

    @property
    def num_points(self) -> int:
        return self.obs_gains.shape[1]


def _spherical_gains(srcs: np.ndarray, geometry: SurfaceGeometry,
                     wavelength: float) -> np.ndarray:
    # (sources, rows, cols) gains from each (x, y, z) row of srcs to each
    # cell, formed from the grid's axes: each difference broadcasts on its
    # own axis, so no (sources x cells x 3) array is formed. They are laid
    # out cell-major, each cell's sources side by side, so build_channels
    # takes the observation gains as a (cells, points) view, and formed in
    # place: the distances, then the phase and its exponential, then the
    # amplitude in the distances' buffer. A huge distance or a tiny
    # wavelength gives inf or nan gains, which build_channels names;
    # numpy's warnings about them would be noise
    x, y, z = cell_axes(geometry)
    sx, sy, sz = srcs.T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dx, dy, dz = x[:, np.newaxis] - sx, y[:, np.newaxis, np.newaxis] - sy, z - sz
        # the sum in the order np.linalg.norm reduces a length-3 axis
        r = dx * dx + dy * dy
        r += dz * dz
        np.sqrt(r, out=r)
        if np.any(r == 0.0):
            raise ValueError("a point coincides with a cell position (zero distance)")
        gains = np.multiply(r, -2j * np.pi)
        gains /= wavelength
        np.exp(gains, out=gains)
        r *= 4.0 * np.pi
        np.divide(wavelength, r, out=r)
        gains *= r
    return gains.transpose(2, 0, 1)


def build_channels(geometry: SurfaceGeometry, points: PointSet,
                   model: ChannelModel) -> ChannelSet:
    """Gains for the feed leg and every (cell, observation point) pair.

    Exactly one point may be tagged "feed"; with none, the illumination is
    ideal (unit feed gains). All other points are observation points, in
    their PointSet order.
    """
    feed_idx = points.indices_with_role("feed")
    if len(feed_idx) > 1:
        raise ConfigurationError("at most one point may have role 'feed'")
    obs_idx = [i for i in range(len(points)) if i not in feed_idx]
    num_cells = geometry.num_cells

    if model.kind == "identity":
        feed = np.ones(num_cells, dtype=np.complex128)
        obs = np.ones((num_cells, len(obs_idx)), dtype=np.complex128)
    elif model.kind == "free_space":
        # (feed, then each observation point) x cells, in one call; both are
        # views of its cell-major gains
        gains = _spherical_gains(points.positions[feed_idx + obs_idx], geometry,
                                 model.wavelength).reshape(-1, num_cells)
        feed = gains[0] if feed_idx else np.ones(num_cells, dtype=np.complex128)
        obs = gains[len(feed_idx):].T
    else:  # explicit_matrix
        if model.matrix.shape != (num_cells, len(obs_idx)):
            raise ConfigurationError(
                f"channel matrix shape {model.matrix.shape} does not match "
                f"({num_cells} cells, {len(obs_idx)} observation points)")
        feed = np.ones(num_cells, dtype=np.complex128)
        obs = model.matrix
    if not (np.isfinite(feed).all() and np.isfinite(obs).all()):
        raise ConfigurationError(
            f"channel gains are not finite: {np.sum(~np.isfinite(feed))} "
            f"feed-to-cell and {np.sum(~np.isfinite(obs))} cell-to-point gains; "
            "check the cell pitch, the point positions and the wavelength")
    return ChannelSet(feed, obs)


def stream_gains(stream_of_cell, num_streams: int, channels: ChannelSet) -> np.ndarray:
    """The (num_streams, num_points) effective gains G: G[s, p] sums
    feed_gains[c] * obs_gains[c, p] over the cells c (row-major flat index)
    whose stream_of_cell[c] is s. Stream ids that are not one a cell, each
    below num_streams, are a ContractViolation; gains so large that the
    received power would overflow are a ConfigurationError."""
    streams = np.asarray(stream_of_cell, dtype=np.int64)
    if streams.shape != (channels.num_cells,):
        raise ContractViolation(
            f"need one stream id per cell: {streams.shape} vs {channels.num_cells} cells")
    if streams.size and (streams.min() < 0 or streams.max() >= num_streams):
        raise ContractViolation(f"stream ids must index the {num_streams} streams")
    gains = np.zeros((num_streams, channels.num_points), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(gains, streams,
                  channels.feed_gains[:, np.newaxis] * channels.obs_gains)
        if not np.isfinite(np.abs(gains).sum() ** 2):
            raise ConfigurationError(
                "effective stream gains are too large: the received power would "
                "overflow; check the channel gains and the wavelength")
    return gains

