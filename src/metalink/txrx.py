"""Digital baseband to per-stream coefficients, and the full receive chain.

Transmit side: each symbol's bit word (bit_words, MSB first) picks its
Gray-coded, peak-normalized constellation point, written directly into
per-stream reflection coefficients, one coefficient per symbol interval,
pilots first (symbol_coefficients). There is no RF chain; the carrier is
an air-fed single tone. The words array is the frame's only description:
its shape gives the stream count and the payload length.

Receive side: detect takes the per-symbol means, which scenario forms in
closed form (a rectangular matched filter, synchronized by construction):
least-squares channel estimation from the pilot block, zero-forcing
detection, and EVM/BER against the sent words. The pilots are Hadamard
rows, whose Gram matrix is pilot_length times the identity, so the
estimate divides by the pilot length. A symbol closer to its reference
point than the scheme's decision_radius cannot be decided wrongly, so
detect runs nearest-point demapping only on the other symbols; demapping
forms its distance table DEMAP_BLOCK symbols at a time and returns uint8
bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigurationError, ContractViolation, _from_envelope, read_only
from .metasurface import CONTINUOUS, QuantizationModel, quantize_values

__getattr__ = _from_envelope(__name__)
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


@dataclass(frozen=True, eq=False)
class ModulationScheme:
    """Gray-coded constellation, peak-normalized so max |point| = 1.

    points are indexed by the symbol's bit word read MSB-first, and are a
    read-only copy, so decision_radius cannot go stale. A point beyond the
    unit circle (by over 1e-9) is refused: it is a surface coefficient.
    decision_radius is (1 - 1e-9) * d_min / 2, where d_min is the smallest
    distance between the points of two different words, 0 when two words
    share a point. word_weights weigh a word's bits, MSB first, in the
    smallest unsigned type that holds the words.
    """

    name: str
    bits_per_symbol: int
    points: np.ndarray
    decision_radius: float = field(init=False, repr=False)
    word_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.bits_per_symbol < 1:
            raise ConfigurationError("a symbol must carry at least one bit")
        points = np.array(self.points, dtype=np.complex128)
        if points.shape != (2 ** self.bits_per_symbol,):
            raise ConfigurationError("constellation size must be 2**bits_per_symbol")
        if np.max(np.abs(points)) > 1.0 + 1e-9:
            raise ConfigurationError("constellation points must lie within the unit circle")
        points.flags.writeable = False
        d_min = min(abs(a - b) for a, b in itertools.combinations(points.tolist(), 2))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "decision_radius", float((1.0 - 1e-9) * d_min / 2.0))
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        object.__setattr__(self, "word_weights", read_only(
            weights.astype(np.min_scalar_type(points.size - 1))))


_SCHEMES = {name: ModulationScheme(name, int(np.log2(points.size)), points)
            for name, points in _build_constellations().items()}
SCHEME_NAMES = tuple(_SCHEMES)


def get_scheme(name: str) -> ModulationScheme:
    """The scheme of a name, in any case; one shared instance per name."""
    key = name.upper()
    if key not in _SCHEMES:
        raise ConfigurationError(f"unknown modulation {name!r}; choose from {SCHEME_NAMES}")
    return _SCHEMES[key]


def demap_symbols(symbols, scheme: ModulationScheme):
    """Nearest-point hard decisions: (uint8 bits, decided constellation points).

    Distances are tabulated DEMAP_BLOCK symbols at a time, so memory stays
    bounded; a tie goes to the lowest bit word.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    words = np.empty(len(symbols), dtype=scheme.word_weights.dtype)
    for i in range(0, len(symbols), DEMAP_BLOCK):
        block = symbols[i:i + DEMAP_BLOCK]
        words[i:i + DEMAP_BLOCK] = np.argmin(
            np.abs(block[:, np.newaxis] - scheme.points), axis=1)
    b = scheme.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1, dtype=words.dtype)
    bits = ((words[:, np.newaxis] >> shifts) & 1).astype(np.uint8, copy=False)
    return bits.reshape(-1), scheme.points[words]


def make_pilots(num_streams: int) -> np.ndarray:
    """Orthogonal +/-1 pilot rows: Hadamard rows, each chip repeated 4 times.

    The array is built once per stream count and shared, so it is read-only.
    """
    num_streams = operator.index(num_streams)  # 2.0 must not share 2's entry
    if num_streams < 1:
        raise ConfigurationError("need at least one stream")
    return _pilots(num_streams)[0]


@functools.lru_cache(maxsize=8)
def _pilots(num_streams: int) -> tuple:
    """The pilots, Hadamard rows (-1)^popcount(s & j) for s < num_streams and
    j < order, each chip repeated 4 times, and pilots^H / pilot_length: their
    Gram matrix is pilot_length * I, a power of two, so y @ the latter
    equals (y @ pilots^H) / pilot_length bit for bit."""
    order = 1 << (num_streams - 1).bit_length()  # the least power of two >= it
    odd = np.bitwise_count(np.arange(num_streams)[:, np.newaxis] & np.arange(order)) & 1
    pilots = np.repeat(1.0 - 2.0 * odd, 4, axis=1).astype(np.complex128)
    return read_only(pilots), read_only(pilots.conj().T / pilots.shape[1])


@functools.lru_cache(maxsize=64)
def _quantized_tables(scheme: ModulationScheme, num_streams: int,
                      quant: QuantizationModel) -> tuple:
    """quantize_values, which works value by value, of the pilots and of
    scheme's points; continuous, they are the pilots and points themselves."""
    return tuple(read_only(quantize_values(table, quant))
                 for table in (make_pilots(num_streams), scheme.points))


def symbol_coefficients(words, scheme: ModulationScheme,
                        quant: QuantizationModel = CONTINUOUS) -> np.ndarray:
    """The (streams, pilots + payload) coefficients of a frame whose
    per-stream payload is words, scheme's bit words (bit_words), one row
    per stream.

    Row s holds stream s's coefficients, one per symbol, the pilots
    (make_pilots of the stream count) first, quantized per quant: each is
    looked up by its bit word in _quantized_tables, within the unit circle.
    Every cell of stream s carries row s, each value held for its symbol;
    the integrated receive phase sends row 0 of one continuous stream."""
    words = np.atleast_2d(words)
    pilots, points = _quantized_tables(scheme, len(words), quant)
    full = np.empty((len(words), pilots.shape[1] + words.shape[1]), dtype=np.complex128)
    full[:, :pilots.shape[1]] = pilots
    full[:, pilots.shape[1]:] = points[words]
    return full


def _no_symbols() -> np.ndarray:
    return np.zeros((0, 0), dtype=np.complex128)


@dataclass
class LinkReport:
    """Outputs of one demodulated frame (or one spectral measurement).

    detected_symbols is the (streams, payload) array of equalized symbols
    and sent_words the frame's (streams, payload) bit words, both 0 x 0
    when no frame was demodulated. The reference symbols are
    points[sent_words], points the scheme's constellation; no whole array
    of them is held, and each reader looks them up a block at a time.
    """

    detected_symbols: np.ndarray = field(default_factory=_no_symbols)
    sent_words: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), np.uint8))
    points: np.ndarray = field(default_factory=lambda: np.zeros(0, np.complex128))
    evm_percent: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ber: np.ndarray = field(default_factory=lambda: np.zeros(0))
    channel_estimate: np.ndarray | None = None
    condition_number: float | None = None
    spectra: dict = field(default_factory=dict)

    @property
    def num_streams(self) -> int:
        return len(self.detected_symbols)


def detect(symbols, scheme: ModulationScheme, words) -> LinkReport:
    """Detect one frame from its per-symbol means, (antennas, pilots + payload).

    The frame is given by its payload, the (streams, payload) bit words
    (bit_words) of the sent symbols, at least one each: the pilots are
    make_pilots(streams), and the reference symbols are scheme.points[words],
    looked up DEMAP_BLOCK symbols at a time and never formed whole; the
    report keeps words and scheme.points in their place. LS-estimate the
    channel from the pilot block, zero-force with the pseudo-inverse, and
    score each stream against its reference symbols.

    One SVD of conj(h_est) gives the condition number sigma_max / sigma_min
    and the pseudo-inverse, formed as np.linalg.pinv forms it, bit for bit
    (within CONDITION_LIMIT no singular value is below its cutoff). Each of
    this SVD and np.linalg.cond's is exact for a matrix within about
    S * eps * sigma_max of h_est (S streams), so by Weyl's bound the two
    condition numbers differ by at most about 2 * S * eps * (1 + cond),
    relative. A non-finite or zero h_est raises DetectionError.

    EVM is the RMS of the error magnitudes |equalized - reference| in
    percent of the reference RMS. Both are formed in one float buffer of
    payload_length, reused by every stream: |reference|^2 first, each
    |reference| one lookup of its word in np.abs(scheme.points) (the bits of
    np.abs of the looked-up point), then the error magnitudes, each block
    one lookup of its words in scheme.points, squared in place; each
    RMS is one sum over the whole buffer, divided by its length (the bits
    of np.mean). BER is the share of the payload_length * bits_per_symbol
    sent bits, each word's read MSB first as word_weights weigh them, that
    differ from the nearest-point decisions of demap_symbols. demap_symbols
    runs only on the symbols whose error is not below
    r = scheme.decision_radius (so a NaN error is demapped too). The others
    cannot be in error: the point of every other word lies at least d_min
    from the reference point, so a symbol closer than r < d_min / 2 to the
    reference point is farther than d_min - r > r from every other word's
    point. The gap between the two distances, above 1e-9 * d_min, dwarfs the
    rounding of the computed distances (relative 1e-16), so demap_symbols
    would decide the sent word. When two words share a point, r is 0 and
    every symbol is demapped; when no symbol is doubtful, demap_symbols is
    not called.
    """
    words = np.asarray(words)
    if words.ndim != 2 or 0 in words.shape:
        raise ContractViolation("words must be (streams, payload), neither of them 0")
    num_streams, payload_length = words.shape
    pilots, pilots_h = _pilots(num_streams)
    pilot_length = pilots.shape[1]
    if len(symbols) < num_streams:
        raise ContractViolation(
            f"{len(symbols)} antennas cannot resolve {num_streams} streams")
    if np.shape(symbols)[1] != pilot_length + payload_length:
        raise ContractViolation("means must cover the frame's symbols")
    y_pilot = symbols[:, :pilot_length]
    y_payload = symbols[:, pilot_length:]

    h_est = y_pilot @ pilots_h
    if not np.isfinite(h_est).all():
        raise DetectionError("estimated channel is not finite", np.inf)
    u, sigma, vt = np.linalg.svd(h_est.conj(), full_matrices=False)
    # as np.linalg.cond, a zero sigma_min reads inf; float division never warns
    cond = float(sigma[0]) / float(sigma[-1]) if sigma[-1] > 0.0 else np.inf
    if not cond <= CONDITION_LIMIT:
        raise DetectionError("estimated channel is rank deficient", cond)
    equalized = np.matmul(vt.T, np.multiply((1.0 / sigma)[:, np.newaxis], u.T)) @ y_payload

    points, magnitudes = scheme.points, np.abs(scheme.points)
    blocks = [slice(i, i + DEMAP_BLOCK) for i in range(0, payload_length, DEMAP_BLOCK)]
    evms = np.empty(num_streams)
    bers = np.zeros(num_streams)  # stays 0 for a stream without a doubtful symbol
    errors = np.empty(payload_length)
    for s in range(num_streams):
        for block in blocks:
            errors[block] = magnitudes.take(words[s, block])
        errors *= errors
        ref_rms = math.sqrt(errors.sum() / len(errors))
        if ref_rms == 0.0:
            raise ValueError("reference power is zero")
        for block in blocks:
            np.abs(equalized[s, block] - points.take(words[s, block]),
                   out=errors[block])
        doubtful = (~(errors < scheme.decision_radius)).nonzero()[0]
        errors *= errors
        evms[s] = 100.0 * math.sqrt(errors.sum() / len(errors)) / ref_rms
        if len(doubtful):
            decided = demap_symbols(equalized[s, doubtful], scheme)[0]
            sent = (words[s, doubtful, np.newaxis] & scheme.word_weights) != 0
            bers[s] = np.count_nonzero(decided != sent.ravel()) / (
                payload_length * scheme.bits_per_symbol)
    return LinkReport(detected_symbols=equalized, sent_words=words, points=points,
                      evm_percent=evms, ber=bers, channel_estimate=h_est,
                      condition_number=cond)

