import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metalink.core import (
    ContractViolation,
    resample_hold,
    tone_envelope,
)
from metalink.metasurface import QuantizationModel
from metalink.propagation import ChannelSet, surface_pass
from metalink.txrx import (
    DEMAP_BLOCK,
    DetectionError,
    FrameSpec,
    ber,
    demap_symbols,
    evm,
    get_scheme,
    make_pilots,
    map_bits,
    receive_frame,
    symbols_to_schedule,
    symbols_to_waveform,
)

from oracles import demap_symbols as demap_oracle, receive_frame as receive_oracle

ALL_SCHEMES = ["BPSK", "QPSK", "8PSK", "16QAM"]


def all_words_bits(bits_per_symbol):
    words = np.arange(2 ** bits_per_symbol)
    shifts = np.arange(bits_per_symbol - 1, -1, -1)
    return ((words[:, None] >> shifts) & 1).reshape(-1)


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def test_bpsk_mapping():
    scheme = get_scheme("BPSK")
    assert np.array_equal(map_bits([0, 1], scheme), [1.0, -1.0])


def test_qpsk_all_zero_word():
    scheme = get_scheme("QPSK")
    assert map_bits([0, 0], scheme)[0] == pytest.approx((1 + 1j) / np.sqrt(2))


def test_16qam_points_live_on_the_documented_grid():
    scheme = get_scheme("16QAM")
    symbols = map_bits(all_words_bits(4), scheme)
    assert len(set(np.round(symbols, 12))) == 16
    grid = np.array([-1.0, -1 / 3, 1 / 3, 1.0]) / np.sqrt(2)
    for s in symbols:
        assert np.min(np.abs(s.real - grid)) < 1e-12
        assert np.min(np.abs(s.imag - grid)) < 1e-12
    assert np.max(np.abs(symbols)) == pytest.approx(1.0)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_peak_amplitude_is_exactly_one(name):
    scheme = get_scheme(name)
    assert np.max(np.abs(scheme.points)) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_demap_inverts_map_exhaustively(name):
    scheme = get_scheme(name)
    bits = all_words_bits(scheme.bits_per_symbol)
    symbols = map_bits(bits, scheme)
    recovered, points = demap_symbols(symbols, scheme)
    assert np.array_equal(recovered, bits)
    assert np.array_equal(points, symbols)


@settings(max_examples=40)
@given(st.sampled_from(ALL_SCHEMES), st.integers(0, 2 ** 32 - 1))
def test_demap_inverts_map_on_random_payloads(name, seed):
    scheme = get_scheme(name)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=scheme.bits_per_symbol * 64)
    recovered, _ = demap_symbols(map_bits(bits, scheme), scheme)
    assert np.array_equal(recovered, bits)


@pytest.mark.parametrize("name", ["QPSK", "16QAM"])
def test_gray_adjacency_on_rectangular_grids(name):
    # nearest constellation neighbours differ in exactly one bit
    scheme = get_scheme(name)
    points = scheme.points
    dist = np.abs(points[:, None] - points[None, :])
    min_dist = np.min(dist[dist > 1e-12])
    for a in range(points.size):
        for b in range(points.size):
            if a < b and dist[a, b] < min_dist * 1.001:
                assert bin(a ^ b).count("1") == 1


def test_gray_adjacency_around_the_psk_circle():
    scheme = get_scheme("8PSK")
    angles = np.angle(scheme.points)
    order = np.argsort(angles)
    for i in range(8):
        a, b = order[i], order[(i + 1) % 8]
        assert bin(int(a) ^ int(b)).count("1") == 1


def test_map_bits_rejects_ragged_input():
    with pytest.raises(ValueError):
        map_bits([0, 1, 0], get_scheme("QPSK"))
    with pytest.raises(ValueError):
        map_bits([0, 2], get_scheme("BPSK"))


@pytest.mark.parametrize("size", [1, DEMAP_BLOCK - 1, DEMAP_BLOCK, DEMAP_BLOCK + 1,
                                  3 * DEMAP_BLOCK + 5])
@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_blocked_demap_matches_one_table_oracle(name, size):
    # exact ties (0j and the midpoint of every pair of points) recur every
    # few symbols, so some fall on block edges; argmin must break them alike
    scheme = get_scheme(name)
    points = scheme.points
    ties = np.concatenate([[0j], ((points[:, None] + points[None, :]) / 2).ravel()])
    rng = np.random.default_rng(size)
    symbols = 0.8 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    symbols[::3] = np.resize(ties, symbols[::3].size)
    symbols[DEMAP_BLOCK - 1:DEMAP_BLOCK + 1] = 0j
    bits, decided = demap_symbols(symbols, scheme)
    ref_bits, ref_decided = demap_oracle(symbols, scheme)
    assert np.array_equal(bits, ref_bits)
    assert np.array_equal(decided, ref_decided)


# ---------------------------------------------------------------------------
# pilots, frames
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("streams", range(1, 10))
def test_pilots_are_orthogonal_pm_one(streams):
    # receive_frame divides by the pilot length, which needs this exactly
    pilots = make_pilots(streams)
    order = 1 << (streams - 1).bit_length()
    assert pilots.shape == (streams, 4 * order)
    assert np.all(np.abs(pilots) == 1.0)
    gram = pilots @ pilots.conj().T
    assert np.array_equal(gram, np.eye(streams) * pilots.shape[1])


def test_frame_control_rate():
    frame = FrameSpec(2, 100, 2.5e6, 40)
    assert frame.control_rate == 1e8
    assert frame.pilot_length == 8
    assert frame.num_symbols == 108


# ---------------------------------------------------------------------------
# symbols_to_schedule
# ---------------------------------------------------------------------------

def test_single_constant_symbol_schedule():
    frame = FrameSpec(1, 1, 1e6, 4)
    sched = symbols_to_schedule([[1.0 + 0j]], frame)
    assert sched.num_streams == 1
    assert sched.num_steps == 4 + 1  # one column per symbol
    assert sched.control_rate == frame.symbol_rate
    held = resample_hold(sched, frame.control_rate)
    assert held.num_steps == (4 + 1) * 4
    assert np.all(held.values[:, -4:] == 1.0)  # payload after the pilots
    assert np.array_equal(held.values[0, :16], np.repeat(frame.pilots[0], 4))


def test_two_stream_bpsk_schedule_sets_halves():
    stream_of_cell = np.array([0, 0, 1, 1, 0, 0, 1, 1])  # left and right halves
    frame = FrameSpec(2, 1, 1e6, 2)
    held = resample_hold(symbols_to_schedule([[1.0], [-1.0]], frame),
                         frame.control_rate)
    payload = held.values[stream_of_cell, -2:]  # what each cell holds
    left = stream_of_cell == 0
    assert np.all(payload[left] == 1.0)
    assert np.all(payload[~left] == -1.0)


def test_symbol_rate_for_20mbps_aggregate():
    # 2 streams x 4 bits x 2.5 MBd = 20 Mbps; 100 MHz control -> 40 samples
    frame = FrameSpec(2, 10, 2.5e6, 40)
    assert frame.samples_per_symbol == 40
    assert frame.control_rate == pytest.approx(1e8)
    aggregate_bps = 2 * 4 * frame.symbol_rate
    assert aggregate_bps == pytest.approx(20e6)


def test_quantized_schedule_snaps_payload():
    frame = FrameSpec(1, 1, 1e6, 1)
    quant = QuantizationModel(phase_levels=2)
    sched = symbols_to_schedule([[np.exp(0.4j * np.pi)]], frame, quant)
    assert sched.values[0, -1] == pytest.approx(1.0)


def test_schedule_length_mismatch_is_rejected():
    frame = FrameSpec(1, 2, 1e6, 1)
    with pytest.raises(ValueError):
        symbols_to_schedule([[1.0]], frame)
    with pytest.raises(ValueError):
        symbols_to_schedule([[1.0, 1.0], [1.0, 1.0]], frame)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_evm_of_identical_sequences_is_zero():
    ref = np.array([1.0, 1j, -1.0])
    assert evm(ref, ref) == 0.0


def test_evm_of_uniform_scale_error():
    ref = np.array([1.0, 1j, -1.0, -1j])
    assert evm(1.1 * ref, ref) == pytest.approx(10.0, rel=1e-12)


def test_evm_converges_to_noise_sigma():
    rng = np.random.default_rng(17)
    n = 100_000
    ref = np.exp(1j * rng.uniform(0, 2 * np.pi, n))  # unit RMS
    sigma = 0.05
    noise = sigma / np.sqrt(2) * (rng.standard_normal(n)
                                  + 1j * rng.standard_normal(n))
    assert evm(ref + noise, ref) == pytest.approx(100 * sigma, rel=0.02)


def test_evm_rejects_zero_reference():
    with pytest.raises(ValueError):
        evm(np.ones(3), np.zeros(3))


def test_ber_counts_flips():
    assert ber([0, 1, 1], [0, 1, 1]) == 0.0
    assert ber([1, 0, 0], [0, 1, 1]) == 1.0
    bits = np.zeros(1000, dtype=int)
    flipped = bits.copy()
    flipped[123] = 1
    assert ber(flipped, bits) == pytest.approx(0.001)
    with pytest.raises(ContractViolation):
        ber([0, 1], [0, 1, 1])


# ---------------------------------------------------------------------------
# receive_frame
# ---------------------------------------------------------------------------

def explicit_link_envelopes(h, scheme, payload, noise_psd=0.0, seed=0,
                            samples_per_symbol=4, freq_offset=0.0):
    """Received envelopes of a random frame through a channel matrix h (A x S).

    Returns (rx, frame, bits, symbols); the carrier sits freq_offset from
    the nominal one.
    """
    antennas, streams = h.shape
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(streams, payload * scheme.bits_per_symbol))
    symbols = np.stack([map_bits(bits[s], scheme) for s in range(streams)])
    frame = FrameSpec(streams, payload, 1e6, samples_per_symbol)
    # one unit-fed cell per stream whose gain to antenna a is h[a, s]
    schedule = symbols_to_schedule(symbols, frame)
    carrier = tone_envelope(frame.num_symbols * frame.samples_per_symbol,
                            frame.control_rate, 4.25e9, freq_offset=freq_offset)
    noise_seeds = np.random.SeedSequence(seed).spawn(antennas)
    rx = surface_pass(carrier, schedule, np.arange(streams),
                      ChannelSet(np.ones(streams), h.T), noise_psd, noise_seeds)
    return rx, frame, bits, symbols


def run_explicit_link(h, scheme_name, payload, noise_psd=0.0, seed=0,
                      samples_per_symbol=4):
    """Loopback through an explicit stream-level channel matrix h (A x S)."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    scheme = get_scheme(scheme_name)
    rx, frame, bits, symbols = explicit_link_envelopes(
        h, scheme, payload, noise_psd, seed, samples_per_symbol)
    return receive_frame(rx, frame, scheme, bits), h, symbols


def assert_detection_matches_oracle(rx, frame, scheme, bits, symbols,
                                    expected_shift=0.0):
    report = receive_frame(rx, frame, scheme, bits, expected_shift)
    oracle = receive_oracle(rx, frame, scheme, expected_shift, reference=symbols)
    assert np.array_equal(report.channel_estimate, oracle.channel_estimate)
    assert report.condition_number == oracle.condition_number
    assert np.array_equal(report.detected_symbols, np.stack(oracle.detected_symbols))
    assert np.array_equal(report.reference_symbols, np.stack(oracle.reference_symbols))
    assert np.array_equal(report.evm_percent, oracle.evm_percent)
    assert np.array_equal(report.ber, oracle.ber)
    return report


@pytest.mark.parametrize("name", ALL_SCHEMES)
@pytest.mark.parametrize("noise_psd", [0.0, 1e-3])
@pytest.mark.parametrize("extra_antennas", [0, 1])
@pytest.mark.parametrize("streams", [1, 2, 3, 8])
def test_detection_matches_inverse_gram_oracle(streams, extra_antennas, noise_psd,
                                               name):
    # dividing by the pilot length and scoring against the transmitted bits
    # reproduce the inv(gram) estimate and the reference re-demap bit for bit
    seed = 100 * streams + 10 * extra_antennas + ALL_SCHEMES.index(name)
    rng = np.random.default_rng(seed)
    antennas = streams + extra_antennas
    h = (np.eye(antennas, streams)
         + 0.3 * (rng.standard_normal((antennas, streams))
                  + 1j * rng.standard_normal((antennas, streams))))
    scheme = get_scheme(name)
    rx, frame, bits, symbols = explicit_link_envelopes(
        h, scheme, 32, noise_psd, seed, samples_per_symbol=2)
    report = assert_detection_matches_oracle(rx, frame, scheme, bits, symbols)
    if noise_psd == 0.0:
        assert np.all(report.ber == 0.0)


def test_derotated_detection_matches_inverse_gram_oracle():
    h = np.array([[0.9 + 0.3j, -0.2j], [0.4, 1.1 - 0.5j], [0.2, 0.1j]])
    scheme = get_scheme("16QAM")
    rx, frame, bits, symbols = explicit_link_envelopes(
        h, scheme, 64, 1e-3, 7, samples_per_symbol=8, freq_offset=3e6)
    assert_detection_matches_oracle(rx, frame, scheme, bits, symbols,
                                    expected_shift=3e6)


def test_bpsk_identity_loopback():
    report, _, _ = run_explicit_link([[1.0]], "BPSK", payload=64)
    assert report.ber[0] == 0.0
    assert report.evm_percent[0] < 1e-9


def test_16qam_decoupled_streams():
    report, _, _ = run_explicit_link(np.eye(2), "16QAM", payload=256)
    assert np.all(report.ber == 0.0)
    assert np.all(report.evm_percent < 1e-9)


def test_random_well_conditioned_channel_is_estimated_and_inverted():
    rng = np.random.default_rng(11)
    while True:
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(h) < 5:
            break
    report, h_true, symbols = run_explicit_link(h, "16QAM", payload=200, seed=3)
    assert np.allclose(report.channel_estimate, h_true, rtol=1e-6)
    assert np.all(report.ber == 0.0)
    for s in range(2):
        assert np.allclose(report.detected_symbols[s], symbols[s], rtol=1e-9,
                           atol=1e-12)


def test_more_antennas_than_streams():
    h = np.array([[1.0, 0.2], [0.1, 0.9], [0.3, -0.4]])
    report, _, _ = run_explicit_link(h, "QPSK", payload=100)
    assert np.all(report.ber == 0.0)


def test_rank_deficient_channel_raises_detection_error():
    h = np.array([[1.0, 1.0], [1.0, 1.0]])  # identical columns
    with pytest.raises(DetectionError) as excinfo:
        run_explicit_link(h, "QPSK", payload=16)
    assert excinfo.value.condition_number > 1e8


def test_expected_shift_derotation():
    # shift the transmit waveform by +3 symbol rates, tell the receiver
    scheme = get_scheme("QPSK")
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=2 * 128)
    symbols = map_bits(bits, scheme)
    frame = FrameSpec(1, 128, 1e6, 8)
    wave = symbols_to_waveform(np.concatenate([frame.pilots[0], symbols]),
                               8, 8e6, 4.25e9)
    n = np.arange(len(wave))
    shifted = wave.with_samples(wave.samples * np.exp(2j * np.pi * 3e6 * n / 8e6))
    report = receive_frame([shifted], frame, scheme, bits[None, :],
                           expected_shift=3e6)
    assert report.ber[0] == 0.0
    assert report.evm_percent[0] < 1e-9


def test_receive_frame_contract_checks():
    scheme = get_scheme("BPSK")
    frame = FrameSpec(2, 4, 1e6, 2)
    wave = symbols_to_waveform(np.ones(8), 2, 2e6, 4.25e9)
    with pytest.raises(ContractViolation):
        receive_frame([wave], frame, scheme, np.ones((2, 4)))  # 1 antenna, 2 streams
    frame1 = FrameSpec(1, 4, 1e6, 2)
    short = symbols_to_waveform(np.ones(7), 2, 2e6, 4.25e9)
    with pytest.raises(ContractViolation):
        receive_frame([short], frame1, scheme, np.ones((1, 4)))
    with pytest.raises(ContractViolation):  # one bit short of the payload
        receive_frame([symbols_to_waveform(np.ones(8), 2, 2e6, 4.25e9)], frame1,
                      scheme, np.ones((1, 3)))


def test_partition_permutation_leaves_stream_products_unchanged():
    # swapping the channel gains of cells within a stream keeps every
    # effective stream gain, so the received envelopes cannot change
    stream_of_cell = np.array([0, 0, 1, 1, 0, 0, 1, 1])  # left and right halves
    frame = FrameSpec(2, 8, 1e6, 2)
    rng = np.random.default_rng(23)
    scheme = get_scheme("QPSK")
    symbols = np.stack([map_bits(rng.integers(0, 2, 16), scheme)
                        for _ in range(2)])
    sched = symbols_to_schedule(symbols, frame)
    feed = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    obs = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))

    perm = np.arange(8)
    for s in range(2):
        cells = np.flatnonzero(stream_of_cell == s)
        perm[cells] = rng.permutation(cells)
    assert not np.array_equal(perm, np.arange(8))

    carrier = tone_envelope(frame.num_symbols * frame.samples_per_symbol,
                            frame.control_rate, 4.25e9)
    out = surface_pass(carrier, sched, stream_of_cell, ChannelSet(feed, obs))
    out_perm = surface_pass(carrier, sched, stream_of_cell,
                            ChannelSet(feed[perm], obs[perm]))
    for a, b in zip(out, out_perm):
        assert np.allclose(a.samples, b.samples, rtol=1e-12, atol=1e-15)


def test_noiseless_loopback_all_schemes():
    for name in ALL_SCHEMES:
        report, _, _ = run_explicit_link(
            [[0.9 + 0.3j, -0.2j], [0.4, 1.1 - 0.5j]], name, payload=64, seed=5)
        assert np.all(report.ber == 0.0), name
        assert np.all(report.evm_percent < 1e-8), name


def test_evm_grows_with_noise():
    levels = [1e-6, 1e-4, 1e-2]
    medians = []
    for psd in levels:
        evms = []
        for seed in range(20):
            report, _, _ = run_explicit_link([[1.0]], "QPSK", payload=64,
                                             noise_psd=psd, seed=seed)
            evms.append(report.evm_percent[0])
        medians.append(np.median(evms))
    assert medians[0] < medians[1] < medians[2]
