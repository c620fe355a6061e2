"""Feed-to-cell and cell-to-point channels, the surface pass, and receiver noise.

Channels are narrowband: one complex gain per (source, destination) pair,
valid across the whole envelope bandwidth. The free-space model is the
scalar spherical wave (lambda / (4*pi*r)) * exp(-j*2*pi*r/lambda) with no
element pattern or polarization. Receiver noise is injected only at the
observation points; the surface itself is passive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CoefficientSchedule,
    ComplexEnvelope,
    ConfigurationError,
    ContractViolation,
    PointSet,
    SurfaceGeometry,
    _hold_ratio,
    cell_positions,
)

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


def _spherical_gains(src: np.ndarray, dsts: np.ndarray, wavelength: float) -> np.ndarray:
    # a huge distance or a tiny wavelength gives inf or nan gains, which
    # build_channels names; numpy's warnings about them would be noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = np.linalg.norm(dsts - src, axis=-1)
        if np.any(r == 0.0):
            raise ValueError("a point coincides with a cell position (zero distance)")
        return (wavelength / (4.0 * np.pi * r)) * np.exp(-2j * np.pi * r / wavelength)


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
    cells = cell_positions(geometry)
    num_cells = geometry.num_cells

    if model.kind == "identity":
        feed = np.ones(num_cells, dtype=np.complex128)
        obs = np.ones((num_cells, len(obs_idx)), dtype=np.complex128)
    elif model.kind == "free_space":
        if feed_idx:
            feed = _spherical_gains(points.positions[feed_idx[0]], cells,
                                    model.wavelength)
        else:
            feed = np.ones(num_cells, dtype=np.complex128)
        obs = np.empty((num_cells, len(obs_idx)), dtype=np.complex128)
        for col, p in enumerate(obs_idx):
            obs[:, col] = _spherical_gains(points.positions[p], cells,
                                           model.wavelength)
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


def surface_pass(incident: ComplexEnvelope, schedule: CoefficientSchedule,
                 stream_of_cell, channels: ChannelSet, noise_psd: float = 0.0,
                 noise_seeds=None) -> list:
    """Received envelope at every observation point, in channel order.

    Cell c (row-major flat index) is lit by feed_gains[c] * incident, holds
    row stream_of_cell[c] of the schedule, and reaches point p through
    obs_gains[c, p]. The chain is linear and narrowband, so each point sees
    rx_p = incident * sum_s G[s, p] * w_s with the effective per-stream gain
    G[s, p] = sum over the cells c of stream s of feed_gains[c] * obs_gains[c, p].
    The cost is O(streams x samples) whatever the cell count.

    The schedule may run at any rate that divides the envelope rate a whole
    number of times, hold = sample_rate / control_rate; each of its steps
    covers hold envelope samples (zero-order hold), so
    rx_p[n] = incident[n] * sum_s G[s, p] * w_s[n // hold], and the schedule
    is never expanded to the envelope rate. Its steps must cover the
    envelope exactly. When noise_psd > 0, point p adds i.i.d. circular
    complex Gaussian noise of variance noise_psd per sample, drawn from
    default_rng(noise_seeds[p]): real parts, then imaginary parts. A
    negative or NaN noise_psd is a ContractViolation. Gains so large that
    the received power would overflow are a ConfigurationError.
    """
    if not noise_psd >= 0.0:
        raise ContractViolation(f"noise_psd must be a number >= 0, not {noise_psd}")
    hold = _hold_ratio(schedule.control_rate, incident.sample_rate)
    if hold is None:
        raise ContractViolation(
            f"envelope rate {incident.sample_rate} Hz is not a whole multiple of "
            f"schedule rate {schedule.control_rate} Hz")
    if schedule.num_steps * hold != len(incident):
        raise ContractViolation(
            f"schedule covers {schedule.num_steps} x {hold} samples, envelope "
            f"has {len(incident)}")
    streams = np.asarray(stream_of_cell, dtype=np.int64)
    if streams.shape != (channels.num_cells,):
        raise ContractViolation(
            f"need one stream id per cell: {streams.shape} vs {channels.num_cells} cells")
    if np.any(streams < 0) or np.any(streams >= schedule.num_streams):
        raise ContractViolation(
            f"stream ids must index the {schedule.num_streams} schedule rows")
    gains = np.zeros((schedule.num_streams, channels.num_points), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(gains, streams,
                  channels.feed_gains[:, np.newaxis] * channels.obs_gains)
        if not np.isfinite(np.abs(gains).sum() ** 2):
            raise ConfigurationError(
                "effective stream gains are too large: the received power would "
                "overflow; check the channel gains and the wavelength")
    weights = gains.T @ schedule.values  # (points, steps), at the schedule's rate
    blocks = incident.samples.reshape(schedule.num_steps, hold)
    rx = (blocks * weights[:, :, np.newaxis]).reshape(channels.num_points,
                                                       len(incident))
    if noise_psd > 0.0:
        if noise_seeds is None or len(noise_seeds) != channels.num_points:
            raise ContractViolation("noise needs one seed per observation point")
        scale = np.sqrt(noise_psd / 2.0)
        n = len(incident)
        for p, seed in enumerate(noise_seeds):
            rng = np.random.default_rng(seed)
            rx[p] += scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return [incident.with_samples(row) for row in rx]
