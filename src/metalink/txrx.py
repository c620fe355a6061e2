"""Digital baseband to coefficient schedules and the full receive chain.

Transmit side: bits are Gray-mapped to peak-normalized constellation points
and written directly into per-stream reflection coefficients, one coefficient
per symbol interval, pilots first. There is no RF chain; the carrier is an
air-fed single tone.

Receive side: optional derotation by a known frequency shift, integrate-and-
dump over symbol intervals, least-squares channel estimation from the pilot
block, zero-forcing detection, nearest-point demapping, and EVM/BER against
the transmitted bits. The pilots are Hadamard rows, whose Gram matrix is
pilot_length times the identity, so the estimate divides by the pilot
length. Demapping forms its distance table DEMAP_BLOCK symbols at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ComplexEnvelope,
    CoefficientSchedule,
    ConfigurationError,
    ContractViolation,
)
from .metasurface import CONTINUOUS, QuantizationModel, quantize_values

CONDITION_LIMIT = 1e8
DEMAP_BLOCK = 4096  # symbols per (block x points) distance table in demap_symbols


class DetectionError(RuntimeError):
    """Channel too ill-conditioned to invert; carries the condition number."""

    def __init__(self, message: str, condition_number: float):
        super().__init__(f"{message} (condition number {condition_number:.3g})")
        self.condition_number = condition_number


def _gray(n: int) -> int:
    return n ^ (n >> 1)


def _build_constellations() -> dict:
    bpsk = np.array([1.0, -1.0], dtype=np.complex128)

    qpsk = np.empty(4, dtype=np.complex128)
    for word in range(4):
        i = 1.0 - 2.0 * ((word >> 1) & 1)
        q = 1.0 - 2.0 * (word & 1)
        qpsk[word] = (i + 1j * q) / np.sqrt(2.0)

    psk8 = np.empty(8, dtype=np.complex128)
    for k in range(8):
        psk8[_gray(k)] = np.exp(2j * np.pi * k / 8.0)

    # per-axis Gray levels: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3
    axis = {0b00: -3.0, 0b01: -1.0, 0b11: 1.0, 0b10: 3.0}
    qam16 = np.empty(16, dtype=np.complex128)
    for word in range(16):
        i = axis[(word >> 2) & 0b11]
        q = axis[word & 0b11]
        qam16[word] = (i + 1j * q) / (3.0 * np.sqrt(2.0))

    return {"BPSK": bpsk, "QPSK": qpsk, "8PSK": psk8, "16QAM": qam16}


_CONSTELLATIONS = _build_constellations()


@dataclass(frozen=True, eq=False)
class ModulationScheme:
    """Gray-coded constellation, peak-normalized so max |point| = 1.

    points are indexed by the symbol's bit word read MSB-first.
    """

    name: str
    bits_per_symbol: int
    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.complex128)
        if points.size != 2 ** self.bits_per_symbol:
            raise ConfigurationError("constellation size must be 2**bits_per_symbol")
        object.__setattr__(self, "points", points)


SCHEME_NAMES = tuple(_CONSTELLATIONS)


def get_scheme(name: str) -> ModulationScheme:
    key = name.upper()
    if key not in _CONSTELLATIONS:
        raise ConfigurationError(f"unknown modulation {name!r}; choose from {SCHEME_NAMES}")
    points = _CONSTELLATIONS[key]
    return ModulationScheme(key, int(np.log2(points.size)), points)


def map_bits(bits, scheme: ModulationScheme) -> np.ndarray:
    """Gray-map a bit sequence to constellation points, MSB-first per symbol."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError("bits must be 1-D")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    b = scheme.bits_per_symbol
    if bits.size % b != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {b}")
    weights = 1 << np.arange(b - 1, -1, -1)
    words = bits.reshape(-1, b) @ weights
    return scheme.points[words]


def demap_symbols(symbols, scheme: ModulationScheme):
    """Nearest-point hard decisions: (bits, decided constellation points).

    Distances are tabulated DEMAP_BLOCK symbols at a time, so memory stays
    bounded; a tie goes to the lowest bit word.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    words = np.empty(len(symbols), dtype=np.intp)
    for i in range(0, len(symbols), DEMAP_BLOCK):
        block = symbols[i:i + DEMAP_BLOCK]
        words[i:i + DEMAP_BLOCK] = np.argmin(
            np.abs(block[:, np.newaxis] - scheme.points), axis=1)
    b = scheme.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1)
    bits = ((words[:, np.newaxis] >> shifts) & 1).reshape(-1)
    return bits, scheme.points[words]


def _hadamard(order: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def make_pilots(num_streams: int) -> np.ndarray:
    """Orthogonal +/-1 pilot rows: Hadamard rows, each chip repeated 4 times."""
    if num_streams < 1:
        raise ConfigurationError("need at least one stream")
    order = 1
    while order < num_streams:
        order *= 2
    rows = _hadamard(order)[:num_streams]
    return np.kron(rows, np.ones(4)).astype(np.complex128)


@dataclass(frozen=True, eq=False)
class FrameSpec:
    """Pilot block plus payload dimensions and symbol timing.

    pilots are make_pilots(num_streams), shape (num_streams, pilot_length);
    the control rate is symbol_rate * samples_per_symbol.
    """

    num_streams: int
    payload_length: int
    symbol_rate: float
    samples_per_symbol: int
    pilots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.payload_length < 1:
            raise ConfigurationError("payload_length must be >= 1")
        if self.symbol_rate <= 0:
            raise ConfigurationError("symbol_rate must be positive")
        if self.samples_per_symbol < 1:
            raise ConfigurationError("samples_per_symbol must be >= 1")
        object.__setattr__(self, "pilots", make_pilots(self.num_streams))

    @property
    def pilot_length(self) -> int:
        return self.pilots.shape[1]

    @property
    def num_symbols(self) -> int:
        return self.pilot_length + self.payload_length

    @property
    def control_rate(self) -> float:
        return self.symbol_rate * self.samples_per_symbol


def symbols_to_schedule(stream_symbols, frame: FrameSpec,
                        quant: QuantizationModel = CONTINUOUS) -> CoefficientSchedule:
    """Compile per-stream symbol sequences into the per-stream schedule.

    Row s holds (A, phi) = (|symbol|, arg symbol) of stream s, one column
    per symbol at frame.symbol_rate; the frame's pilots precede the payload.
    The surface pass holds each column for its symbol interval, so the
    schedule is never expanded to the control or envelope rate. Every cell
    of stream s carries row s (see propagation.surface_pass). Coefficients
    are quantized per quant.
    """
    symbols = np.atleast_2d(np.asarray(stream_symbols, dtype=np.complex128))
    if symbols.shape[0] != frame.num_streams:
        raise ValueError(
            f"{symbols.shape[0]} symbol streams for a {frame.num_streams}-stream frame")
    if symbols.shape[1] != frame.payload_length:
        raise ValueError(
            f"payload length {symbols.shape[1]} does not match frame "
            f"payload_length {frame.payload_length}")
    full = quantize_values(np.concatenate([frame.pilots, symbols], axis=1), quant)
    return CoefficientSchedule(full, frame.symbol_rate)


def symbols_to_waveform(symbols, samples_per_symbol: int, sample_rate: float,
                        carrier_freq: float, t0: float = 0.0) -> ComplexEnvelope:
    """Zero-order-hold symbol waveform, as a conventional transmitter emits."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 1 or symbols.size == 0:
        raise ValueError("symbols must form a non-empty 1-D sequence")
    samples = np.repeat(symbols, samples_per_symbol)
    return ComplexEnvelope(samples, sample_rate, carrier_freq, t0)


def evm(detected, reference) -> float:
    """RMS error vector magnitude in percent of the reference RMS."""
    detected = np.asarray(detected, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    if detected.shape != reference.shape:
        raise ContractViolation("detected and reference must have equal length")
    ref_rms = np.sqrt(np.mean(np.abs(reference) ** 2))
    if ref_rms == 0.0:
        raise ValueError("reference power is zero")
    return float(100.0 * np.sqrt(np.mean(np.abs(detected - reference) ** 2)) / ref_rms)


def ber(detected_bits, reference_bits) -> float:
    """Bit error ratio: Hamming distance over length."""
    detected_bits = np.asarray(detected_bits, dtype=np.int64)
    reference_bits = np.asarray(reference_bits, dtype=np.int64)
    if detected_bits.shape != reference_bits.shape:
        raise ContractViolation("bit sequences must have equal length")
    if detected_bits.size == 0:
        raise ValueError("bit sequences must be non-empty")
    return float(np.mean(detected_bits != reference_bits))


def _no_symbols() -> np.ndarray:
    return np.zeros((0, 0), dtype=np.complex128)


@dataclass
class LinkReport:
    """Outputs of one demodulated frame (or one spectral measurement).

    detected_symbols and reference_symbols are (streams, payload) arrays,
    0 x 0 when no frame was demodulated.
    """

    detected_symbols: np.ndarray = field(default_factory=_no_symbols)
    reference_symbols: np.ndarray = field(default_factory=_no_symbols)
    evm_percent: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ber: np.ndarray = field(default_factory=lambda: np.zeros(0))
    channel_estimate: np.ndarray | None = None
    condition_number: float | None = None
    spectra: dict = field(default_factory=dict)

    @property
    def num_streams(self) -> int:
        return len(self.detected_symbols)


def receive_frame(rx, frame: FrameSpec, scheme: ModulationScheme, reference_bits,
                  expected_shift: float = 0.0) -> LinkReport:
    """Demodulate one frame from per-antenna envelopes.

    Pipeline: derotate by expected_shift (the known frequency offset of the
    wanted signal, e.g. -1/period after a down-conversion ramp), integrate
    and dump over each symbol, LS-estimate the channel from the pilot block,
    zero-force with the pseudo-inverse, demap to nearest points, and score
    EVM against the mapped reference_bits and BER against reference_bits,
    the transmitted payload bits of shape
    (num_streams, payload_length * bits_per_symbol).

    rx envelopes must be time-aligned (equal t0) and cover exactly
    frame.num_symbols symbol intervals.
    """
    rx = list(rx)
    num_antennas = len(rx)
    num_streams = frame.num_streams
    if num_antennas < num_streams:
        raise ContractViolation(
            f"{num_antennas} antennas cannot resolve {num_streams} streams")
    reference_bits = np.asarray(reference_bits)
    if reference_bits.shape != (num_streams,
                                frame.payload_length * scheme.bits_per_symbol):
        raise ContractViolation(
            "reference bits must be (streams, payload x bits per symbol)")
    first = rx[0]
    for env in rx[1:]:
        if (len(env) != len(first) or env.sample_rate != first.sample_rate
                or env.t0 != first.t0):
            raise ContractViolation("rx envelopes must be aligned and equal length")
    fs = first.sample_rate
    sps_f = fs / frame.symbol_rate
    sps = int(round(sps_f))
    if abs(sps_f - sps) > 1e-9 * sps_f or sps < 1:
        raise ContractViolation(
            f"sample rate {fs} is not an integer multiple of the symbol rate")
    expected_len = frame.num_symbols * sps
    if len(first) != expected_len:
        raise ContractViolation(
            f"rx length {len(first)} != {frame.num_symbols} symbols x {sps} samples")

    rotation = None
    if expected_shift != 0.0:
        n = np.arange(expected_len)
        rotation = np.exp(-2j * np.pi * expected_shift * n / fs)
    # integrate and dump per antenna: rectangular matched filter, synchronized
    # by construction; only the per-symbol means are stacked
    symbols = np.empty((num_antennas, frame.num_symbols), dtype=np.complex128)
    for a, env in enumerate(rx):
        samples = env.samples if rotation is None else env.samples * rotation
        symbols[a] = samples.reshape(frame.num_symbols, sps).mean(axis=1)
    y_pilot = symbols[:, :frame.pilot_length]
    y_payload = symbols[:, frame.pilot_length:]

    # Hadamard pilots: pilots @ pilots^H == pilot_length * I exactly
    h_est = y_pilot @ frame.pilots.conj().T / frame.pilot_length
    cond = float(np.linalg.cond(h_est))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DetectionError("estimated channel is rank deficient", cond)
    equalized = np.linalg.pinv(h_est) @ y_payload

    reference = map_bits(reference_bits.ravel(), scheme).reshape(num_streams, -1)
    evms = np.empty(num_streams)
    bers = np.empty(num_streams)
    for s in range(num_streams):
        evms[s] = evm(equalized[s], reference[s])
        bers[s] = ber(demap_symbols(equalized[s], scheme)[0], reference_bits[s])
    return LinkReport(detected_symbols=equalized, reference_symbols=reference,
                      evm_percent=evms, ber=bers, channel_estimate=h_est,
                      condition_number=cond)
