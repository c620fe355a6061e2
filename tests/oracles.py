"""Scalar reference implementations that the tests check production code against.

Each one restates a formula element by element, independent of the
vectorised code it checks: cell_position for core.cell_positions,
free_space_gain for the channel gains of propagation.build_channels,
dft_direct for the fast transform behind spectral.periodogram,
channel_estimate_pairs for the channel estimate in scenario summaries, the
row-at-a-time csv.writer writers for the CSV that scenario.export_csv
writes from each artifact table, demap_symbols for the blocked
txrx.demap_symbols, receive_frame for the detection half of
txrx.receive_frame, and simulate for scenario.simulate.
"""

import csv
from types import SimpleNamespace

import numpy as np

from metalink import core, metasurface, propagation, spectral, txrx
from metalink.core import ContractViolation
from metalink.scenario import Scenario, ScenarioResult, _harmonic_table, _summarize
from metalink.txrx import CONDITION_LIMIT, DetectionError, ber, evm


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


def free_space_gain(src, dst, wavelength: float) -> complex:
    """Spherical-wave gain (lambda / (4*pi*r)) * exp(-j*2*pi*r/lambda)."""
    r = float(np.linalg.norm(np.asarray(dst, float) - np.asarray(src, float)))
    if r == 0.0:
        raise ValueError("source and destination coincide (zero distance)")
    return (wavelength / (4.0 * np.pi * r)) * np.exp(-2j * np.pi * r / wavelength)


def dft_direct(x) -> np.ndarray:
    """O(N^2) direct DFT, the anti-regression oracle for the fast transform."""
    x = np.asarray(x, dtype=np.complex128)
    n_total = x.size
    n = np.arange(n_total)
    out = np.empty(n_total, dtype=np.complex128)
    for start in range(0, n_total, 256):  # bound the (k, n) phase matrix size
        k = np.arange(start, min(start + 256, n_total))
        out[k] = np.exp(-2j * np.pi * np.outer(k, n) / n_total) @ x
    return out


def channel_estimate_pairs(h) -> list:
    """The S x P complex matrix as nested [re, im] Python floats, per element."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in h]


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


def receive_frame(rx, frame, scheme, expected_shift: float = 0.0, reference=None):
    """Demodulate with the general least-squares estimate inv(gram), and score
    BER against bits demapped again from the reference symbols.

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
    symbols = np.empty((num_antennas, frame.num_symbols), dtype=np.complex128)
    for a, env in enumerate(rx):
        samples = env.samples if rotation is None else env.samples * rotation
        symbols[a] = samples.reshape(frame.num_symbols, sps).mean(axis=1)
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
# simulate: one runner per mode, each with its own seeds and channels
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


def _link_phase(sc, data, channels, bits_seed, noise_seeds):
    scheme = txrx.get_scheme(data["modulation"])
    partition = _partition(sc, data["partition"])
    frame = sc.frame(partition.num_streams)
    rng = np.random.default_rng(bits_seed)
    bits = rng.integers(0, 2, size=(partition.num_streams,
                                    frame.payload_length * scheme.bits_per_symbol))
    symbols = txrx.map_bits(bits.ravel(), scheme).reshape(partition.num_streams, -1)
    schedule = txrx.symbols_to_schedule(symbols, frame, sc.quantization)
    carrier = core.tone_envelope(
        frame.num_symbols * frame.samples_per_symbol * sc.oversample,
        sc.envelope_rate(), sc.carrier_freq_hz)
    rx = propagation.surface_pass(carrier, schedule, partition.stream_of_cell,
                                  channels, sc.noise_psd, noise_seeds)
    report = txrx.receive_frame(rx, frame, scheme, bits)
    report.spectra["rx0"] = spectral.periodogram(
        rx[0], sc.spectrum_length(len(rx[0])))
    return report


def _run_transmit_link(sc, data):
    seeds = np.random.SeedSequence(sc.rng_seed).spawn(1 + len(sc.points))
    channels = propagation.build_channels(sc.geometry, sc.points, _channel_model(data))
    report = _link_phase(sc, data, channels, seeds[0], seeds[1:1 + channels.num_points])
    summary = _summarize(sc, {"link": report})
    return ScenarioResult(sc, {"link": report}, summary)


def _run_sdc(sc, data):
    seeds = np.random.SeedSequence(sc.rng_seed).spawn(1 + len(sc.points))
    channels = propagation.build_channels(sc.geometry, sc.points, _channel_model(data))
    duration = sc.sdc_periods * sc.staircase.period
    ramp = metasurface.compile_staircase(sc.staircase, sc.control_rate_hz, duration)
    carrier = core.tone_envelope(ramp.num_steps * sc.oversample, sc.envelope_rate(),
                                 sc.carrier_freq_hz)
    whole = _partition(sc, "full")
    rx = propagation.surface_pass(carrier, ramp, whole.stream_of_cell, channels,
                                  sc.noise_psd, seeds[1:1 + channels.num_points])
    report = txrx.LinkReport()
    report.spectra["input"] = spectral.periodogram(carrier)
    report.spectra["output"] = spectral.periodogram(rx[0])
    summary = _summarize(sc, {"link": report})
    out_spec = report.spectra["output"]
    summary["strongest_line_hz"] = float(
        out_spec.frequencies[int(np.argmax(out_spec.power))])
    summary["expected_line_hz"] = sc.staircase.frequency_shift
    summary["harmonics"] = _harmonic_table(sc, out_spec)
    return ScenarioResult(sc, {"link": report}, summary)


def _run_integrated(sc, data):
    seeds = np.random.SeedSequence(sc.rng_seed).spawn(2 + len(sc.points) + 1)
    model = _channel_model(data)

    # transmit phase: feed lights the surface, surface modulates, rx points observe
    channels_tx = propagation.build_channels(sc.geometry, sc.points, model)
    tx_report = _link_phase(sc, data, channels_tx, seeds[0],
                            seeds[2:2 + channels_tx.num_points])
    tx_report.spectra["tx_rx0"] = tx_report.spectra.pop("rx0")

    # receive phase: the first rx point transmits a frame, the surface ramps,
    # and the feed antenna (switched to a receive chain) observes
    feed_idx = sc.points.indices_with_role("feed")[0]
    obs_idx = [i for i in range(len(sc.points)) if i != feed_idx]
    back_points = core.PointSet(
        sc.points.positions[[obs_idx[0], feed_idx]], ("feed", "rx"))
    channels_rx = propagation.build_channels(sc.geometry, back_points, model)

    scheme = txrx.get_scheme(data["modulation"])
    frame = sc.frame(1)
    rng = np.random.default_rng(seeds[1])
    bits = rng.integers(0, 2, size=frame.payload_length * scheme.bits_per_symbol)
    symbols = txrx.map_bits(bits, scheme)
    all_symbols = np.concatenate([frame.pilots[0], symbols])
    env_rate = sc.envelope_rate()
    incident = txrx.symbols_to_waveform(
        all_symbols, sc.samples_per_symbol * sc.oversample, env_rate,
        sc.carrier_freq_hz)
    ramp = metasurface.compile_staircase(sc.staircase, sc.control_rate_hz,
                                         len(incident) / env_rate)
    whole = _partition(sc, "full")
    rx = propagation.surface_pass(incident, ramp, whole.stream_of_cell, channels_rx,
                                  sc.noise_psd, seeds[-1:])
    rx_report = txrx.receive_frame(rx, frame, scheme, bits[np.newaxis, :],
                                   expected_shift=sc.staircase.frequency_shift)
    rx_report.spectra["sdc_rx0"] = spectral.periodogram(
        rx[0], sc.spectrum_length(len(rx[0])))

    reports = {"transmit": tx_report, "receive": rx_report}
    summary = _summarize(sc, reports)
    summary["expected_line_hz"] = sc.staircase.frequency_shift
    return ScenarioResult(sc, reports, summary)


def simulate(data: dict) -> ScenarioResult:
    """Run a valid scenario dict through the runner of its mode.

    The partition, the channel model and the scheme are built from data;
    every other value comes from Scenario.from_dict(data).
    """
    sc = Scenario.from_dict(data)
    run = {"transmit_link": _run_transmit_link, "space_down_conversion": _run_sdc,
           "integrated": _run_integrated}[sc.mode]
    return run(sc, data)
