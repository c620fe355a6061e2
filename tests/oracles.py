"""Scalar reference implementations that the tests check production code against.

Each one restates a formula element by element, independent of the
vectorised code it checks: cell_position for core.cell_positions,
hadamard_pilots for txrx.make_pilots, sylvester_hadamard for the
closed-form Hadamard rows of its table (txrx._pilots), frame_record (and
scenario_frame, from a scenario dict) for the frame layout that txrx reads
off a payload's bit words, free_space_gain for the channel
gains of propagation.build_channels, dft_direct for the fast transform
behind spectral.periodogram, staircase_harmonic, the per-step Fourier
integral, for the closed form of spectral.staircase_harmonics,
line_power for spectral.line_power, which finds its bin by arithmetic
rather than by argmin over the grid,
channel_estimate_pairs for the channel
estimate in scenario summaries, the row-at-a-time csv.writer writers for
the CSV that scenario.export_csv writes from each artifact table,
demap_symbols for the blocked txrx.demap_symbols, evm and ber for the
scores txrx.detect forms from its error magnitudes and from demapping only
the symbols that could be in error, surface_pass for
propagation.surface_pass and the weights of stream_gains, written out
sample by sample, tone for the offset and scaled tones that core no longer
makes, symbols_to_waveform for the zero-order-hold waveform that the
integrated receive phase receives, _ramp_schedule for the staircase of
metasurface.ramp_period, its phases formed again, integrate and
phase_exact_means for the per-symbol means that scenario takes in closed
form, averaging written samples derotated at exact phases
(exact_rotation), frame_noise for the
receiver noise that scenario adds to a frame's head samples and per-symbol
means, and simulate for scenario.simulate, which writes no sample but the
spectrum heads.

surface_pass also draws noise per sample over whole envelopes, each point
from its own seed, all real parts, then all imaginary parts: the draw that
space-down-conversion mode adds to the one point it reads. Integrated, it
is the reference that the tests hold scenario's per-symbol noise draw to,
statistically.

receive_frame is the only whole-envelope receiver: src/ has none. It
checks that the envelopes share one rate and length and cover the frame in
whole symbols, integrates each antenna over the whole envelope, estimates
the channel with the general inv(gram) least squares, and scores BER on
bits demapped again from the reference symbols. The tests hold txrx.detect
against it on the same means.

_run_sdc takes the SDC output spectrum over the whole capture, where
scenario.simulate takes it from one ramp period; the two agree to rounding,
within SDC_RTOL of the peak power (spectra) or of each value (the harmonic
table's measured fractions, assert_close_harmonics).
"""

import csv
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from metalink import core, metasurface, propagation, spectral, txrx
from metalink.core import ConfigurationError, ContractViolation
from metalink.scenario import ScenarioResult, _harmonic_table, _summarize
from metalink.schema import Scenario
from metalink.txrx import CONDITION_LIMIT, DetectionError


def cell_position(geometry, n: int, m: int) -> np.ndarray:
    """3-D position (meters) of cell (n, m); grid centered on the origin."""
    if not (0 <= n < geometry.rows and 0 <= m < geometry.cols):
        raise ValueError(
            f"cell index ({n}, {m}) outside {geometry.rows}x{geometry.cols} grid")
    ox, oy, oz = geometry.origin
    return np.array([
        ox + (m - (geometry.cols - 1) / 2) * geometry.spacing,
        oy + (n - (geometry.rows - 1) / 2) * geometry.spacing,
        oz,
    ])


def sylvester_hadamard(order: int) -> np.ndarray:
    """The Sylvester-Hadamard matrix of a power-of-two order, built by the
    block recursion H -> [[H, H], [H, -H]] from [[1]]."""
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


def hadamard_pilots(num_streams: int) -> np.ndarray:
    """The first num_streams rows of the Sylvester-Hadamard matrix of the
    next power-of-two order, built by the recursion H -> [[H, H], [H, -H]]
    on lists, with each chip repeated 4 times."""
    rows = [[1.0]]
    while len(rows) < num_streams:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return np.array([[chip for chip in row for _ in range(4)]
                     for row in rows[:num_streams]], dtype=np.complex128)


def frame_record(num_streams: int, payload_length: int, symbol_rate: float,
                 samples_per_symbol: int) -> SimpleNamespace:
    """A frame's dimensions and timing: the hadamard_pilots(num_streams)
    block, then payload_length symbols per stream, at symbol_rate, each
    samples_per_symbol control steps long."""
    pilots = hadamard_pilots(num_streams)
    return SimpleNamespace(num_streams=num_streams, payload_length=payload_length,
                           symbol_rate=symbol_rate, samples_per_symbol=samples_per_symbol,
                           pilots=pilots, pilot_length=pilots.shape[1],
                           num_symbols=pilots.shape[1] + payload_length)


def scenario_frame(data: dict, num_streams: int) -> SimpleNamespace:
    """The frame_record of a scenario dict's frame object."""
    frame = data["frame"]
    return frame_record(num_streams, frame["payload_symbols"],
                        float(frame["symbol_rate_baud"]), frame["samples_per_symbol"])


def tone(num_samples: int, sample_rate: float, carrier_freq: float, amplitude=1.0,
         freq_offset=0.0) -> core.ComplexEnvelope:
    """amplitude * exp(j*2*pi*freq_offset*n / sample_rate), sample by sample."""
    return core.ComplexEnvelope(
        [amplitude * np.exp(2j * np.pi * freq_offset * n / sample_rate)
         for n in range(num_samples)], sample_rate, carrier_freq)


def free_space_gain(src, dst, wavelength: float) -> complex:
    """Spherical-wave gain (lambda / (4*pi*r)) * exp(-j*2*pi*r/lambda)."""
    r = float(np.linalg.norm(np.asarray(dst, float) - np.asarray(src, float)))
    if r == 0.0:
        raise ValueError("source and destination coincide (zero distance)")
    return (wavelength / (4.0 * np.pi * r)) * np.exp(-2j * np.pi * r / wavelength)


def dft_direct(x) -> np.ndarray:
    """O(N^2) direct DFT, the anti-regression oracle for the fast transform.
    Each phase k * n / N drops its whole turns in integers, k * n mod N,
    before it is rounded, so it is within half an ulp of exact in [0, 1)."""
    x = np.asarray(x, dtype=np.complex128)
    n_total = x.size
    n = np.arange(n_total)
    out = np.empty(n_total, dtype=np.complex128)
    for start in range(0, n_total, 256):  # bound the (k, n) phase matrix size
        k = np.arange(start, min(start + 256, n_total))
        out[k] = np.exp(-2j * np.pi * (np.outer(k, n) % n_total / n_total)) @ x
    return out


def staircase_harmonic(L: int, q: int) -> float:
    """|c_q| of the unit-amplitude L-step down-ramp staircase, q != 0, from
    the Fourier integral of one held period taken step by step: step m
    holds exp(-j*2*pi*m/L) over [m/L, (m+1)/L) of the period, where
    exp(j*2*pi*q*t) integrates to its difference at the two edges over
    j*2*pi*q."""
    edges = np.exp(2j * np.pi * q * np.arange(L + 1) / L)
    steps = np.exp(-2j * np.pi * np.arange(L) / L)
    return abs(np.sum(steps * np.diff(edges)) / (2j * np.pi * q))


def channel_estimate_pairs(h) -> list:
    """The S x P complex matrix as nested [re, im] Python floats, per element."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in h]


def line_power(spec, freq: float) -> float:
    """Power at the bin whose center is nearest freq, by argmin over the
    whole grid; ValueError when that bin lies over 1e-6 * resolution away."""
    distances = np.abs(spec.frequencies - freq)
    idx = int(np.argmin(distances))
    if distances[idx] > 1e-6 * spec.resolution:
        raise ValueError(
            f"{freq} Hz is not a bin center (resolution {spec.resolution} Hz)")
    return float(spec.power[idx])


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_constellation(path, detected, reference) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["symbol_index", "i", "q", "ref_i", "ref_q"])
        for idx, (d, r) in enumerate(zip(detected, reference)):
            writer.writerow([idx, _fmt(d.real), _fmt(d.imag),
                             _fmt(r.real), _fmt(r.imag)])


def write_spectrum(path, spectrum) -> None:
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(spectrum.power)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["freq_hz", "power_linear", "power_db"])
        for f, p, db in zip(spectrum.frequencies, spectrum.power, power_db):
            writer.writerow([_fmt(f), _fmt(p), _fmt(db)])


def demap_symbols(symbols, scheme):
    """Nearest-point decisions from one (symbols x points) distance table."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    distances = np.abs(symbols[:, np.newaxis] - scheme.points[np.newaxis, :])
    words = np.argmin(distances, axis=1)
    b = scheme.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1)
    bits = ((words[:, np.newaxis] >> shifts) & 1).reshape(-1)
    return bits, scheme.points[words]


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


def surface_pass(incident, schedule, stream_of_cell, channels, noise_psd=0.0,
                 noise_seeds=None) -> list:
    """The whole-envelope surface pass: every point's received envelope as one
    array, noise drawn per point as n real parts, then n imaginary parts."""
    if not noise_psd >= 0.0:
        raise ContractViolation(f"noise_psd must be a number >= 0, not {noise_psd}")
    ratio = incident.sample_rate / schedule.control_rate
    hold = int(round(ratio))
    if hold < 1 or abs(ratio - hold) > 1e-9 * ratio:
        raise ContractViolation("envelope rate is not a multiple of the schedule's")
    if schedule.num_steps * hold != len(incident):
        raise ContractViolation("schedule steps do not cover the envelope")
    streams = np.asarray(stream_of_cell, dtype=np.int64)
    if streams.shape != (channels.num_cells,):
        raise ContractViolation("need one stream id per cell")
    if np.any(streams < 0) or np.any(streams >= len(schedule.values)):
        raise ContractViolation("stream ids must index the schedule rows")
    gains = np.zeros((len(schedule.values), channels.num_points), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(gains, streams,
                  channels.feed_gains[:, np.newaxis] * channels.obs_gains)
        if not np.isfinite(np.abs(gains).sum() ** 2):
            raise ConfigurationError("the received power would overflow")
    weights = gains.T @ schedule.values
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


def symbols_to_waveform(symbols, samples_per_symbol: int, sample_rate: float,
                        carrier_freq: float) -> core.ComplexEnvelope:
    """Zero-order-hold symbol waveform, as a conventional transmitter emits."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 1 or symbols.size == 0:
        raise ValueError("symbols must form a non-empty 1-D sequence")
    samples = np.repeat(symbols, samples_per_symbol)
    return core.ComplexEnvelope(samples, sample_rate, carrier_freq)


def exact_rotation(n, turns: Fraction) -> np.ndarray:
    """exp(-2j*pi*t) at the sample indices n, t = n * turns mod 1 reduced in
    integers, so the phase is exact before it is rounded whatever n."""
    phase = np.asarray(n, dtype=object) * turns.numerator % turns.denominator
    return np.exp(-2j * np.pi * (phase / turns.denominator).astype(float))


def integrate(rx, num_symbols: int, expected_shift: float = 0.0) -> np.ndarray:
    """Per-symbol means of whole envelopes, one antenna at a time, derotated
    by one rotation over the whole envelope, at the exact phases of the
    floats expected_shift / sample rate (exact_rotation)."""
    fs = rx[0].sample_rate
    sps = len(rx[0]) // num_symbols
    rotation = None
    if expected_shift != 0.0:
        rotation = exact_rotation(np.arange(len(rx[0])),
                                  Fraction(expected_shift) / Fraction(fs))
    symbols = np.empty((len(rx), num_symbols), dtype=np.complex128)
    for a, env in enumerate(rx):
        samples = env.samples if rotation is None else env.samples * rotation
        symbols[a] = samples.reshape(num_symbols, sps).mean(axis=1)
    return symbols


def phase_exact_means(sc, sent, channels, first: int, stop: int) -> np.ndarray:
    """The receive phase's noiseless means of symbols first..stop-1, written
    sample by sample and derotated at phases reduced exactly.

    sent is the whole frame's symbols and channels its back channels. The
    window's samples n = first * sps ... stop * sps - 1 are the zero-order
    hold of sent through surface_pass, with the staircase's steps from the
    window's first (_ramp_schedule). Sample n is derotated by
    exp(-2j*pi*t), t = n * direction / (L * oversample) mod 1, at the
    fundamental of the staircase, which holds each of its L steps for one
    control step, oversample samples; t is reduced in integers, so no phase
    grows with n.
    """
    sps = sc.samples_per_symbol * sc.oversample
    hold = sc.oversample
    start, count = first * sps, (stop - first) * sps
    L = sc.staircase.steps_per_period
    schedule = _ramp_schedule(sc, start // hold, count // hold)
    incident = symbols_to_waveform(sent[first:stop], sps, sc.envelope_rate(),
                                   sc.carrier_freq_hz)
    rx = surface_pass(incident, schedule, np.zeros(channels.num_cells, dtype=np.int64),
                      channels)
    rotation = exact_rotation(np.arange(start, start + count),
                              Fraction(sc.staircase.direction, L * sc.oversample))
    return np.stack([(env.samples * rotation).reshape(-1, sps).mean(axis=1) for env in rx])


def frame_noise(num_points: int, num_symbols: int, sps: int, head_length: int,
                noise_psd: float, rng) -> tuple:
    """The receiver noise of one frame in simulate's draw order, built whole.

    Point 0 has per-sample noise over the symbols its head_length-sample
    spectrum head covers, and every other (point, symbol) only the mean of
    its samples' noise, of variance noise_psd / sps. The frame's generator
    rng, past its payload, gives standard normals in (real, imaginary)
    pairs: one pair per sample of those symbols; then, point by point, one
    pair per remaining symbol mean. Returns point 0's per-sample noise and
    the (points x symbols) per-symbol noise means, zero where the samples
    cover.
    """
    covered = -(-head_length // sps)
    means = np.zeros((num_points, num_symbols), dtype=np.complex128)
    pairs = rng.standard_normal((covered * sps, 2))
    samples = np.sqrt(noise_psd / 2.0) * (pairs[:, 0] + 1j * pairs[:, 1])
    for p in range(num_points):
        first = covered if p == 0 else 0
        pairs = rng.standard_normal((num_symbols - first, 2))
        means[p, first:] = np.sqrt(noise_psd / (2.0 * sps)) * (pairs[:, 0] + 1j * pairs[:, 1])
    return samples, means


def receive_frame(rx, frame, scheme, expected_shift: float = 0.0, reference=None,
                  noise=None):
    """Demodulate with the general least-squares estimate inv(gram), and score
    BER against bits demapped again from the reference symbols. noise, if
    given, is added to the (antennas x symbols) integrated means.

    Returns a namespace with per-stream lists detected_symbols,
    reference_symbols, detected_bits and reference_bits, arrays evm_percent
    and ber, channel_estimate and condition_number.
    """
    rx = list(rx)
    num_antennas = len(rx)
    num_streams = frame.num_streams
    if num_antennas < num_streams:
        raise ContractViolation(
            f"{num_antennas} antennas cannot resolve {num_streams} streams")
    first = rx[0]
    for env in rx[1:]:
        if len(env) != len(first) or env.sample_rate != first.sample_rate:
            raise ContractViolation("rx envelopes must have equal rates and lengths")
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

    symbols = integrate(rx, frame.num_symbols, expected_shift)
    if noise is not None:
        symbols = symbols + noise
    y_pilot = symbols[:, :frame.pilot_length]
    y_payload = symbols[:, frame.pilot_length:]

    pilots = frame.pilots
    gram = pilots @ pilots.conj().T
    h_est = y_pilot @ pilots.conj().T @ np.linalg.inv(gram)
    cond = float(np.linalg.cond(h_est))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DetectionError("estimated channel is rank deficient", cond)
    equalized = np.linalg.pinv(h_est) @ y_payload

    report = SimpleNamespace(channel_estimate=h_est, condition_number=cond,
                             detected_symbols=[], reference_symbols=[],
                             detected_bits=[], reference_bits=[])
    if reference is not None:
        reference = np.atleast_2d(np.asarray(reference, dtype=np.complex128))
        if reference.shape != (num_streams, frame.payload_length):
            raise ContractViolation("reference symbols must be (streams, payload)")
    evms = []
    bers = []
    for s in range(num_streams):
        bits, _ = demap_symbols(equalized[s], scheme)
        report.detected_symbols.append(equalized[s])
        report.detected_bits.append(bits)
        if reference is not None:
            ref_bits, _ = demap_symbols(reference[s], scheme)
            report.reference_symbols.append(reference[s])
            report.reference_bits.append(ref_bits)
            evms.append(evm(equalized[s], reference[s]))
            bers.append(ber(bits, ref_bits))
    report.evm_percent = np.asarray(evms)
    report.ber = np.asarray(bers)
    return report


# ---------------------------------------------------------------------------
# simulate: one runner per mode, each with its own generators and channels
# ---------------------------------------------------------------------------

def _channel_model(data: dict) -> propagation.ChannelModel:
    channel = data["channel"]
    matrix = channel.get("matrix")
    if matrix is not None:
        raw = np.asarray(matrix, dtype=float)
        matrix = raw[..., 0] + 1j * raw[..., 1]
    wavelength = channel.get("wavelength_m") or core.wavelength_of(
        float(data["carrier_freq_hz"]))
    return propagation.ChannelModel(kind=channel["kind"], wavelength=wavelength,
                                    matrix=matrix)


def _partition(sc: Scenario, spec) -> SimpleNamespace:
    """stream_of_cell and num_streams of a 'full', 'left_right' or list spec."""
    cells = np.arange(sc.geometry.num_cells)
    if spec == "full":
        ids = np.zeros_like(cells)
    elif spec == "left_right":
        ids = (cells % sc.geometry.cols >= sc.geometry.cols // 2).astype(int)
    else:
        ids = np.asarray(spec)
    return SimpleNamespace(stream_of_cell=ids.astype(np.int64),
                           num_streams=int(ids.max()) + 1)


def _link_report(ns, words, scheme) -> txrx.LinkReport:
    """A scored receive_frame namespace, of a frame that sent words of
    scheme, as the LinkReport simulate returns."""
    return txrx.LinkReport(
        detected_symbols=np.stack(ns.detected_symbols), sent_words=words,
        points=scheme.points, evm_percent=ns.evm_percent, ber=ns.ber,
        channel_estimate=ns.channel_estimate, condition_number=ns.condition_number)


def _received(sc, rx, num_symbols, rng):
    """A frame received as the noiseless envelopes rx, with the noise that
    simulate adds, drawn from rng: (rx with point 0's per-sample noise added, the
    per-symbol noise means or None without noise, and point 0's first
    spectrum_length samples)."""
    length = sc.spectrum_length(len(rx[0]))
    if sc.noise_psd == 0.0:
        return rx, None, rx[0].with_samples(rx[0].samples[:length])
    samples, means = frame_noise(len(rx), num_symbols, len(rx[0]) // num_symbols,
                                 length, sc.noise_psd, rng)
    first = rx[0].samples.copy()
    first[:len(samples)] += samples
    return [rx[0].with_samples(first)] + rx[1:], means, rx[0].with_samples(first[:length])


def _payload_words(rng, scheme, shape) -> np.ndarray:
    """The (streams x payload) symbol words that a frame draws first from
    its generator rng, as uint8 integers below 2 ** bits_per_symbol."""
    return rng.integers(0, 2 ** scheme.bits_per_symbol, size=shape, dtype=np.uint8)


def _payload_symbols(words, scheme) -> np.ndarray:
    """The map_bits points of the bits of words, MSB first, one row per
    stream."""
    shifts = np.arange(scheme.bits_per_symbol - 1, -1, -1)
    bits = ((words[..., np.newaxis] >> shifts) & 1).reshape(-1)
    return txrx.map_bits(bits, scheme).reshape(words.shape)


def _link_phase(sc, data, channels, rng):
    scheme = txrx.get_scheme(data["modulation"])
    partition = _partition(sc, data["partition"])
    frame = scenario_frame(data, partition.num_streams)
    words = _payload_words(rng, scheme, (partition.num_streams, frame.payload_length))
    symbols = _payload_symbols(words, scheme)
    # every coefficient quantized on its own, not looked up in a table
    schedule = core.CoefficientSchedule(metasurface.quantize_values(
        np.concatenate([frame.pilots, symbols], axis=1), sc.quantization),
        frame.symbol_rate)
    carrier = core.tone_envelope(
        frame.num_symbols * frame.samples_per_symbol * sc.oversample,
        sc.envelope_rate(), sc.carrier_freq_hz)
    rx = surface_pass(carrier, schedule, partition.stream_of_cell, channels)
    rx, noise, head = _received(sc, rx, frame.num_symbols, rng)
    report = _link_report(receive_frame(rx, frame, scheme, reference=symbols,
                                        noise=noise), words, scheme)
    report.spectra["rx0"] = spectral.periodogram(head)
    return report


def _frame_rngs(sc, count: int) -> list:
    """One generator per frame, from the first count children of rng_seed."""
    return [np.random.default_rng(seed)
            for seed in np.random.SeedSequence(sc.rng_seed).spawn(count)]


def _run_transmit_link(sc, data):
    rng, = _frame_rngs(sc, 1)
    channels = propagation.build_channels(sc.geometry, sc.points, _channel_model(data))
    report = _link_phase(sc, data, channels, rng)
    summary = _summarize(sc, {"link": report})
    return ScenarioResult({"link": report}, summary)


def _ramp_schedule(sc, first: int, num_steps: int) -> core.CoefficientSchedule:
    """Steps first .. first + num_steps - 1 of the staircase as a one-stream
    schedule, one control sample a step: step m holds
    amplitude * exp(j * direction * 2*pi * (m mod L) / L), its phases formed
    here and not taken from metasurface, whose ramp simulate uses."""
    spec = sc.staircase
    L = spec.steps_per_period
    m = (first + np.arange(num_steps)) % L
    values = spec.amplitude * np.exp(1j * (spec.direction * 2 * np.pi * m / L))
    return core.CoefficientSchedule(values[np.newaxis], sc.control_rate_hz)


def _ramp_line(sc) -> float:
    """The staircase's fundamental: _ramp_schedule steps through its L
    values once per L control steps, whatever period_s rounds to."""
    return sc.staircase.direction * sc.control_rate_hz / sc.staircase.steps_per_period


def _run_sdc(sc, data):
    channels = propagation.build_channels(sc.geometry, sc.points, _channel_model(data))
    ramp = _ramp_schedule(sc, 0, sc.sdc_periods * sc.staircase.steps_per_period)
    carrier = core.tone_envelope(ramp.num_steps * sc.oversample, sc.envelope_rate(),
                                 sc.carrier_freq_hz)
    whole = _partition(sc, "full")
    rx = surface_pass(carrier, ramp, whole.stream_of_cell, channels)
    if sc.noise_psd > 0.0:  # point 0's samples, from frame 0's generator
        pairs = _frame_rngs(sc, 1)[0].standard_normal((len(carrier), 2))
        rx[0] = rx[0].with_samples(
            rx[0].samples + np.sqrt(sc.noise_psd / 2.0) * (pairs[:, 0] + 1j * pairs[:, 1]))
    report = txrx.LinkReport()
    # the unit tone's exact spectrum, power 1 at 0 Hz: the fast transform of
    # the tone leaves rounding residue in the other bins at some lengths
    grid = spectral.periodogram(carrier)
    report.spectra["input"] = spectral.Spectrum(
        (grid.frequencies == 0.0).astype(float), grid.resolution)
    report.spectra["output"] = spectral.periodogram(rx[0])
    summary = _summarize(sc, {"link": report})
    out_spec = report.spectra["output"]
    # of the lines within a relative 1e-9 of the peak power, the one nearest
    # the expected line
    peak, expected = max(out_spec.power), _ramp_line(sc)
    summary["strongest_line_hz"] = min(
        (float(f) for f, p in zip(out_spec.frequencies, out_spec.power)
         if p >= (1.0 - 1e-9) * peak), key=lambda f: abs(f - expected))
    summary["expected_line_hz"] = expected
    summary["harmonics"] = _harmonic_table(sc, out_spec)
    return ScenarioResult({"link": report}, summary)


def _run_integrated(sc, data):
    tx_rng, rx_rng = _frame_rngs(sc, 2)
    model = _channel_model(data)

    # transmit phase: feed lights the surface, surface modulates, rx points observe
    channels_tx = propagation.build_channels(sc.geometry, sc.points, model)
    tx_report = _link_phase(sc, data, channels_tx, tx_rng)
    tx_report.spectra["tx_rx0"] = tx_report.spectra.pop("rx0")

    # receive phase: the first rx point transmits a frame, the surface ramps,
    # and the feed antenna (switched to a receive chain) observes
    feed_idx = sc.points.indices_with_role("feed")[0]
    obs_idx = [i for i in range(len(sc.points)) if i != feed_idx]
    back_points = core.PointSet(
        sc.points.positions[[obs_idx[0], feed_idx]], ("feed", "rx"))
    channels_rx = propagation.build_channels(sc.geometry, back_points, model)

    scheme = txrx.get_scheme(data["modulation"])
    frame = scenario_frame(data, 1)
    words = _payload_words(rx_rng, scheme, (1, frame.payload_length))
    symbols = _payload_symbols(words, scheme)[0]
    all_symbols = np.concatenate([frame.pilots[0], symbols])
    env_rate = sc.envelope_rate()
    incident = symbols_to_waveform(
        all_symbols, sc.samples_per_symbol * sc.oversample, env_rate,
        sc.carrier_freq_hz)
    ramp = _ramp_schedule(sc, 0, len(incident) // sc.oversample)
    whole = _partition(sc, "full")
    rx = surface_pass(incident, ramp, whole.stream_of_cell, channels_rx)
    shift = _ramp_line(sc)
    rx, noise, head = _received(sc, rx, frame.num_symbols, rx_rng)
    rx_report = _link_report(receive_frame(rx, frame, scheme, shift, reference=symbols,
                                           noise=noise), words, scheme)
    rx_report.spectra["sdc_rx0"] = spectral.periodogram(head)

    reports = {"transmit": tx_report, "receive": rx_report}
    summary = _summarize(sc, reports)
    summary["expected_line_hz"] = shift
    return ScenarioResult(reports, summary)


# the acceptance gate's brute-force bound
SDC_RTOL = 1e-12


def assert_close_harmonics(got: list, want: list) -> None:
    """Equal harmonic tables, but that each measured power_fraction need
    only lie within SDC_RTOL of the reference's."""
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert row.keys() == ref.keys()
        for key, value in row.items():
            if key == "power_fraction":
                assert abs(value - ref[key]) <= SDC_RTOL * abs(ref[key]), row
            else:
                assert value == ref[key], row


def simulate(data: dict) -> ScenarioResult:
    """Run a valid scenario dict through the runner of its mode.

    The partition, the channel model and the scheme are built from data;
    every other value comes from Scenario.from_dict(data).
    """
    sc = Scenario.from_dict(data)
    run = {"transmit_link": _run_transmit_link, "space_down_conversion": _run_sdc,
           "integrated": _run_integrated}[sc.mode]
    return run(sc, data)
