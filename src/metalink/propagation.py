"""Feed-to-cell and cell-to-point channels, and the surface pass.

Channels are narrowband: one complex gain per (source, destination) pair,
valid across the whole envelope bandwidth. The free-space model is the
scalar spherical wave (lambda / (4*pi*r)) * exp(-j*2*pi*r/lambda) with no
element pattern or polarization. Receiver noise is injected only at the
observation points; the surface itself is passive. surface_pass adds it to
the whole envelope it returns. run_pass, which streams a pass in blocks,
adds none: a frame's noise is drawn where its per-symbol means are formed
(scenario).
"""

from __future__ import annotations

import math
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
    # src and dsts broadcast over their leading axes, the last holds x, y, z;
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
        # (feed, then each observation point) x cells, in one call
        gains = _spherical_gains(points.positions[feed_idx + obs_idx, np.newaxis],
                                 cells, model.wavelength)
        feed = gains[0] if feed_idx else np.ones(num_cells, dtype=np.complex128)
        obs = np.ascontiguousarray(gains[len(feed_idx):].T)
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


BLOCK_SAMPLES = 2 ** 16  # envelope samples per point in one block of a streamed pass


def pass_weights(sample_rate: float, num_samples: int, schedule: CoefficientSchedule,
                 stream_of_cell, channels: ChannelSet) -> tuple:
    """Check a surface pass over num_samples envelope samples; return its
    per-point weights = G.T @ schedule.values and its hold.

    Cell c (row-major flat index) is lit by feed_gains[c], holds row
    stream_of_cell[c] of the schedule, and reaches point p through
    obs_gains[c, p]; G[s, p] sums feed_gains[c] * obs_gains[c, p] over the
    cells c of stream s. weights[p, k] is point p's gain while schedule
    step k holds, which is for hold envelope samples. The checks are those
    surface_pass documents, but for the noise ones, which surface_pass adds.
    """
    hold = _hold_ratio(schedule.control_rate, sample_rate)
    if hold is None:
        raise ContractViolation(
            f"envelope rate {sample_rate} Hz is not a whole multiple of "
            f"schedule rate {schedule.control_rate} Hz")
    if schedule.num_steps * hold != num_samples:
        raise ContractViolation(
            f"schedule covers {schedule.num_steps} x {hold} samples, envelope "
            f"has {num_samples}")
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
    return gains.T @ schedule.values, hold


def run_pass(incident, sample_rate: float, num_samples: int,
             schedule: CoefficientSchedule, stream_of_cell, channels: ChannelSet,
             symbol_samples: int, take) -> None:
    """Run a checked surface pass block by block, handing each block to
    take(start, rx).

    incident(start, stop) gives the incident samples start:stop of the
    envelope. A block is the longest run of whole symbols of symbol_samples
    and whole schedule steps that fits in BLOCK_SAMPLES, at least one of
    each and at most the whole envelope; the last block may be shorter, and
    a symbol as long as the envelope makes the pass one block. rx holds the
    received samples start:start + rx.shape[1] at every point, (points, n):
    rx[p, n] = incident[n] * weights[p, n // hold] (pass_weights), without
    noise. It is a view of one buffer, which the next block overwrites. The
    checks are those of pass_weights.
    """
    weights, hold = pass_weights(sample_rate, num_samples, schedule, stream_of_cell,
                                 channels)
    unit = math.lcm(hold, symbol_samples)
    block_samples = min(max(1, BLOCK_SAMPLES // unit) * unit, num_samples)
    buffer = np.empty((channels.num_points, block_samples), dtype=np.complex128)
    for start in range(0, num_samples, block_samples):
        stop = min(start + block_samples, num_samples)
        k, n = start // hold, (stop - start) // hold
        rx = buffer[:, :stop - start]
        np.multiply(incident(start, stop).reshape(n, hold), weights[:, k:k + n, np.newaxis],
                    out=rx.reshape(-1, n, hold))
        take(start, rx)


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
    negative or NaN noise_psd, or noise without one seed per point, is a
    ContractViolation. Gains so large that the received power would
    overflow are a ConfigurationError.

    The whole envelope is one block of run_pass. Space-down-conversion mode
    calls this, since its DFT reads the whole envelope, and it stays public
    because the acceptance gate drives the surface through it.
    """
    if not noise_psd >= 0.0:
        raise ContractViolation(f"noise_psd must be a number >= 0, not {noise_psd}")
    if noise_psd > 0.0 and (noise_seeds is None
                            or len(noise_seeds) != channels.num_points):
        raise ContractViolation("noise needs one seed per observation point")
    rx = []
    run_pass(lambda start, stop: incident.samples[start:stop], incident.sample_rate,
             len(incident), schedule, stream_of_cell, channels, len(incident),
             lambda start, block: rx.extend(block))
    if noise_psd > 0.0:
        scale = np.sqrt(noise_psd / 2.0)
        for row, seed in zip(rx, noise_seeds):
            rng = np.random.default_rng(seed)
            row += scale * (rng.standard_normal(len(row)) + 1j * rng.standard_normal(len(row)))
    return [incident.with_samples(row) for row in rx]
