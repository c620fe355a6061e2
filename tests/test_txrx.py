import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metalink import scenario as scen, txrx
from metalink.core import (
    CoefficientSchedule,
    ConfigurationError,
    ContractViolation,
    resample_hold,
    tone_envelope,
)
from metalink.metasurface import QuantizationModel
from metalink.propagation import ChannelSet, surface_pass
from metalink.txrx import (
    DEMAP_BLOCK,
    DetectionError,
    ModulationScheme,
    bit_words,
    demap_symbols,
    detect,
    get_scheme,
    make_pilots,
    map_bits,
    symbol_coefficients,
)

from oracles import (
    ber,
    demap_symbols as demap_oracle,
    evm,
    frame_record,
    hadamard_pilots,
    integrate as integrate_oracle,
    receive_frame as receive_oracle,
    surface_pass as whole_pass,
    sylvester_hadamard,
    symbols_to_waveform,
)

ALL_SCHEMES = ["BPSK", "QPSK", "8PSK", "16QAM"]


def word_bits(words, bits_per_symbol):
    shifts = np.arange(bits_per_symbol - 1, -1, -1)
    return ((np.asarray(words)[:, None] >> shifts) & 1).reshape(-1)


def all_words_bits(bits_per_symbol):
    return word_bits(np.arange(2 ** bits_per_symbol), bits_per_symbol)


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


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_schemes_are_shared_and_their_points_read_only(name):
    scheme = get_scheme(name)
    assert get_scheme(name.lower()) is scheme
    assert not scheme.points.flags.writeable
    first = scheme.points[0]
    with pytest.raises(ValueError):
        scheme.points[0] = 5.0
    assert get_scheme(name).points[0] == first


def test_a_scheme_copies_the_points_it_is_given():
    points = np.array([1.0, -1.0], dtype=np.complex128)
    scheme = ModulationScheme("OWN", 1, points)
    points[0] = 5.0
    assert points.flags.writeable and scheme.points[0] == 1.0


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_decision_radius_is_just_under_half_the_smallest_gap(name):
    scheme = get_scheme(name)
    p = scheme.points
    d_min = min(abs(p[i] - p[j]) for i in range(p.size) for j in range(p.size)
                if i != j)
    assert scheme.decision_radius == (1.0 - 1e-9) * d_min / 2.0


def test_a_repeated_point_gives_radius_zero_and_bad_shapes_are_refused():
    assert ModulationScheme("REPEAT", 2, [1.0, -1.0, 1j, 1.0]).decision_radius == 0.0
    with pytest.raises(ConfigurationError):
        ModulationScheme("NONE", 0, [1.0])
    with pytest.raises(ConfigurationError):
        ModulationScheme("GRID", 2, [[1.0, -1.0], [1j, -1j]])


def test_a_scheme_refuses_points_beyond_the_unit_circle():
    # a surface coefficient cannot exceed magnitude 1, and schedules do not
    # check their values one by one
    with pytest.raises(ConfigurationError):
        ModulationScheme("LOUD", 1, [1.0, -1.5])
    ModulationScheme("EDGE", 1, [1.0 + 1e-12, -1.0])
    for name in ALL_SCHEMES:
        assert np.max(np.abs(get_scheme(name).points)) <= 1.0 + 1e-15


def test_map_bits_rejects_ragged_input():
    with pytest.raises(ValueError):
        map_bits([0, 1, 0], get_scheme("QPSK"))
    with pytest.raises(ValueError):
        map_bits([0, 2], get_scheme("BPSK"))


@pytest.mark.parametrize("bits", [[0.5, 1.0], [np.nan, 1.0], [1e300, 0.0], [-1, 1],
                                  [2 ** 63, 0], [2 ** 70, 0]],
                         ids=["half", "nan", "huge_float", "negative", "above_int64",
                              "object_int"])
def test_map_bits_refuses_anything_but_0_and_1_before_casting(bits):
    # an int64 cast first would decode 0.5 as bit 0, and would raise numpy's
    # own errors for NaN and values above int64
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        map_bits(bits, get_scheme("BPSK"))


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_uint8_bits_round_trip_without_a_wider_copy(name):
    scheme = get_scheme(name)
    bits = np.random.default_rng(3).integers(
        0, 2, size=scheme.bits_per_symbol * 2 ** 16).astype(np.uint8)
    tracemalloc.start()
    try:
        symbols = map_bits(bits, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an int64 copy of the bits alone would take 8 bytes per bit
    assert peak < symbols.nbytes + 4 * bits.nbytes, (peak, symbols.nbytes)
    recovered, points = demap_symbols(symbols, scheme)
    assert recovered.dtype == np.uint8
    assert np.array_equal(recovered, bits)
    assert np.array_equal(points, symbols)


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
    # detect divides by the pilot length, which needs this exactly
    pilots = make_pilots(streams)
    order = 1 << (streams - 1).bit_length()
    assert pilots.shape == (streams, 4 * order)
    assert np.all(np.abs(pilots) == 1.0)
    gram = pilots @ pilots.conj().T
    assert np.array_equal(gram, np.eye(streams) * pilots.shape[1])


@pytest.mark.parametrize("streams", [1, 2, 3, 5, 8, 9])
def test_pilots_are_built_once_read_only_and_equal_the_recursion(streams):
    pilots = make_pilots(streams)
    assert np.array_equal(pilots, hadamard_pilots(streams))
    assert pilots.dtype == np.complex128
    assert make_pilots(streams) is pilots  # shared, hence read-only
    assert not pilots.flags.writeable
    with pytest.raises(ValueError):
        pilots[0, 0] = -1.0


def test_the_pilot_table_is_the_sylvester_rows_bit_for_bit():
    # each row is (-1)^popcount(s & j) in closed form; the reference builds
    # the whole matrix by the block recursion
    for streams in range(1, 301):
        order = 1 << (streams - 1).bit_length()
        want = np.kron(sylvester_hadamard(order)[:streams], np.ones(4)).astype(np.complex128)
        pilots, pilots_h = txrx._pilots(streams)
        assert pilots.tobytes() == want.tobytes(), streams
        assert pilots_h.tobytes() == (want.conj().T / want.shape[1]).tobytes(), streams


def test_zero_streams_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(ConfigurationError):
            make_pilots(0)


def test_a_non_integer_stream_count_is_refused_even_when_its_value_is_cached():
    make_pilots(2)
    with pytest.raises(TypeError):
        make_pilots(2.0)
    assert np.array_equal(make_pilots(np.int64(2)), make_pilots(2))


def test_frame_control_rate():
    frame = scen.load_scenario("mimo2x2_16qam")["frame"]
    assert frame["symbol_rate_baud"] * frame["samples_per_symbol"] == 1e8
    assert make_pilots(2).shape == (2, 8)
    words = np.zeros((2, 100), dtype=np.uint8)
    assert symbol_coefficients(words, get_scheme("16QAM")).shape == (2, 108)


# ---------------------------------------------------------------------------
# symbol_coefficients
# ---------------------------------------------------------------------------

def test_single_constant_symbol_schedule():
    # the point 1.0, one column per symbol at 1 MBd, held 4 samples a symbol
    sched = CoefficientSchedule(symbol_coefficients([[0]], get_scheme("BPSK")), 1e6)
    assert len(sched.values) == 1
    assert sched.num_steps == 4 + 1
    held = resample_hold(sched, 4e6)
    assert held.num_steps == (4 + 1) * 4
    assert np.all(held.values[:, -4:] == 1.0)  # payload after the pilots
    assert np.array_equal(held.values[0, :16], np.repeat(make_pilots(1)[0], 4))


def test_two_stream_bpsk_schedule_sets_halves():
    stream_of_cell = np.array([0, 0, 1, 1, 0, 0, 1, 1])  # left and right halves
    sched = CoefficientSchedule(symbol_coefficients([[0], [1]], get_scheme("BPSK")), 1e6)
    held = resample_hold(sched, 2e6)
    payload = held.values[stream_of_cell, -2:]  # what each cell holds
    left = stream_of_cell == 0
    assert np.all(payload[left] == 1.0)
    assert np.all(payload[~left] == -1.0)


def test_symbol_rate_for_20mbps_aggregate():
    # 2 streams x 4 bits x 2.5 MBd = 20 Mbps; 100 MHz control -> 40 samples
    data = scen.load_scenario("mimo2x2_16qam")
    frame = data["frame"]
    assert frame["samples_per_symbol"] == 40
    assert data["control_rate_hz"] == 1e8
    assert frame["symbol_rate_baud"] * frame["samples_per_symbol"] == pytest.approx(
        data["control_rate_hz"])
    assert data["partition"] == "left_right"  # two streams
    aggregate_bps = (2 * get_scheme(data["modulation"]).bits_per_symbol
                     * frame["symbol_rate_baud"])
    assert aggregate_bps == pytest.approx(20e6)


def test_quantized_schedule_snaps_payload():
    quant = QuantizationModel(phase_levels=2)
    # 8PSK word 0b001 is the point at pi/4, nearer phase 0 than phase pi
    coefficients = symbol_coefficients([[0b001]], get_scheme("8PSK"), quant)
    assert coefficients[0, -1] == pytest.approx(1.0)


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
# scoring: demapping only the symbols outside the decision radius
# ---------------------------------------------------------------------------

def count_demapped(monkeypatch) -> list:
    """Record the number of symbols of each later demap_symbols call."""
    demapped = []
    brute_force = txrx.demap_symbols

    def spy(symbols, scheme):
        demapped.append(len(symbols))
        return brute_force(symbols, scheme)

    monkeypatch.setattr(txrx, "demap_symbols", spy)
    return demapped


def assert_scores_match_brute_force(report, scheme, bits):
    """BER and EVM equal (==) the oracles on a full demap of every symbol."""
    for s, (detected, reference) in enumerate(zip(report.detected_symbols,
                                                  scheme.points[report.sent_words])):
        assert report.ber[s] == ber(demap_oracle(detected, scheme)[0], bits[s])
        assert report.evm_percent[s] == evm(detected, reference)


def detect_as_equalized(received, words, scheme):
    """detect on a one-stream frame whose channel estimate is exactly 1, so
    the equalized symbols are received bit for bit; the references are the
    points of words."""
    bits = word_bits(words, scheme.bits_per_symbol)[None, :]
    means = np.concatenate([make_pilots(1)[0], received])[None, :]
    report = detect(means, scheme, np.asarray(words)[None, :])
    assert np.array_equal(report.detected_symbols[0], received)
    return report, bits


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_scores_match_brute_force_from_0_to_40_db(name, monkeypatch):
    scheme = get_scheme(name)
    rng = np.random.default_rng(ALL_SCHEMES.index(name))
    h = np.array([[0.9 + 0.3j, -0.2j], [0.4, 1.1 - 0.5j], [0.2, 0.1j]])
    frame = frame_record(2, 2000, 1e6, 1)
    demapped = count_demapped(monkeypatch)
    for snr_db in range(0, 41, 5):
        bits = rng.integers(0, 2, size=(2, frame.payload_length * scheme.bits_per_symbol))
        words = np.stack([bit_words(row, scheme) for row in bits])
        sent = np.concatenate([frame.pilots, scheme.points[words]], axis=1)
        clean = h @ sent
        sigma = np.sqrt(np.mean(np.abs(clean) ** 2) / 10 ** (snr_db / 10) / 2)
        noise = sigma * (rng.standard_normal(clean.shape)
                         + 1j * rng.standard_normal(clean.shape))
        demapped.clear()
        report = detect(clean + noise, scheme, words)
        assert_scores_match_brute_force(report, scheme, bits)
        if snr_db == 0:  # both the demapped and the skipped symbols occur
            assert np.all(report.ber > 0)
            assert 0 < sum(demapped) < 2 * frame.payload_length


@pytest.mark.parametrize("name", ALL_SCHEMES)
def test_scores_match_brute_force_on_boundaries_and_at_the_radius(name):
    scheme = get_scheme(name)
    points, r = scheme.points, scheme.decision_radius
    received, words = [0j], [0]
    for i in range(points.size):  # every pairwise midpoint, scored against both
        for j in range(points.size):
            if i != j:
                received.append((points[i] + points[j]) / 2)
                words.append(i)
    for w in range(points.size):  # at r, one ulp and 1e-12 inside and outside
        for k in range(16):
            for rho in (r, np.nextafter(r, 0.0), np.nextafter(r, 2.0),
                        r * (1 - 1e-12), r * (1 + 1e-12)):
                received.append(points[w] + rho * np.exp(1j * np.pi * k / 8))
                words.append(w)
    received = np.array(received)
    errors = np.abs(received - points[words])
    assert np.any(errors == r) and np.any(errors < r) and np.any(errors > r)
    report, bits = detect_as_equalized(received, words, scheme)
    assert_scores_match_brute_force(report, scheme, bits)


def test_a_repeated_point_demaps_every_symbol(monkeypatch):
    scheme = ModulationScheme("REPEAT", 2, [1.0, -1.0, 1j, 1.0])
    words = np.arange(64) % 4
    demapped = count_demapped(monkeypatch)
    report, bits = detect_as_equalized(scheme.points[words], words, scheme)
    assert demapped == [64]
    assert report.ber[0] == 2 * 16 / 128  # word 3 decides as word 0
    assert_scores_match_brute_force(report, scheme, bits)


def test_the_noiseless_bundled_mimo_frame_demaps_no_symbol(monkeypatch):
    demapped = count_demapped(monkeypatch)
    sc = scen.Scenario.from_dict(scen.load_scenario("mimo2x2_16qam"))
    report = scen.simulate(sc).reports["link"]
    assert demapped == []  # no symbol is doubtful, so demap_symbols never runs
    assert np.all(report.ber == 0.0)
    assert_scores_match_brute_force(report, sc.scheme, np.stack(
        [demap_oracle(row, sc.scheme)[0] for row in sc.scheme.points[report.sent_words]]))


# ---------------------------------------------------------------------------
# the receive chain: per-symbol means, then detect
# ---------------------------------------------------------------------------

def explicit_link_envelopes(h, scheme, payload, noise_psd=0.0, seed=0,
                            samples_per_symbol=4, freq_offset=0.0):
    """Received envelopes of a random frame through a channel matrix h (A x S).

    Returns (rx, frame, words, symbols), symbols the map_bits points of the
    drawn bits and words their bit words; the carrier sits freq_offset from
    the nominal one.
    """
    antennas, streams = h.shape
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(streams, payload * scheme.bits_per_symbol))
    symbols = np.stack([map_bits(bits[s], scheme) for s in range(streams)])
    words = np.stack([bit_words(bits[s], scheme) for s in range(streams)])
    frame = frame_record(streams, payload, 1e6, samples_per_symbol)
    # one unit-fed cell per stream whose gain to antenna a is h[a, s]
    schedule = CoefficientSchedule(symbol_coefficients(words, scheme), frame.symbol_rate)
    carrier = tone_envelope(frame.num_symbols * frame.samples_per_symbol,
                            frame.symbol_rate * frame.samples_per_symbol, 4.25e9,
                            freq_offset=freq_offset)
    noise_seeds = np.random.SeedSequence(seed).spawn(antennas)
    rx = whole_pass(carrier, schedule, np.arange(streams),
                    ChannelSet(np.ones(streams), h.T), noise_psd, noise_seeds)
    return rx, frame, words, symbols


def receive(rx, frame, scheme, words, expected_shift=0.0):
    """The receive chain simulate runs, on the per-symbol means of the
    envelopes rx (here integrated by oracles.integrate): detect."""
    means = integrate_oracle(rx, frame.num_symbols, expected_shift)
    return detect(means, scheme, words)


def run_explicit_link(h, scheme_name, payload, noise_psd=0.0, seed=0,
                      samples_per_symbol=4):
    """Loopback through an explicit stream-level channel matrix h (A x S)."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    scheme = get_scheme(scheme_name)
    rx, frame, words, symbols = explicit_link_envelopes(
        h, scheme, payload, noise_psd, seed, samples_per_symbol)
    return receive(rx, frame, scheme, words), h, symbols


def assert_detection_matches_oracle(rx, frame, scheme, words, symbols,
                                    expected_shift=0.0):
    oracle = receive_oracle(rx, frame, scheme, expected_shift, reference=symbols)
    report = receive(rx, frame, scheme, words, expected_shift)
    assert np.array_equal(report.channel_estimate, oracle.channel_estimate)
    assert_condition_number_close(report.condition_number, oracle.channel_estimate)
    assert np.array_equal(report.detected_symbols, np.stack(oracle.detected_symbols))
    assert np.array_equal(scheme.points[report.sent_words],
                          np.stack(oracle.reference_symbols))
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
    rx, frame, words, symbols = explicit_link_envelopes(
        h, scheme, 32, noise_psd, seed, samples_per_symbol=2)
    report = assert_detection_matches_oracle(rx, frame, scheme, words, symbols)
    if noise_psd == 0.0:
        assert np.all(report.ber == 0.0)


def test_derotated_detection_matches_inverse_gram_oracle():
    h = np.array([[0.9 + 0.3j, -0.2j], [0.4, 1.1 - 0.5j], [0.2, 0.1j]])
    scheme = get_scheme("16QAM")
    rx, frame, words, symbols = explicit_link_envelopes(
        h, scheme, 64, 1e-3, 7, samples_per_symbol=8, freq_offset=3e6)
    assert_detection_matches_oracle(rx, frame, scheme, words, symbols,
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


def assert_condition_number_close(cond, h_est):
    """cond within detect's bound of np.linalg.cond(h_est): about
    2 * S * eps * (1 + cond), relative, for S streams."""
    want = np.linalg.cond(h_est)
    bound = 2 * h_est.shape[1] * np.finfo(float).eps * (1 + want)
    assert abs(cond - want) <= bound * want


def random_frame_means(rng, antennas, streams, scheme, payload=16):
    """(means, frame, words) of a noiseless frame through a random complex
    channel of antennas x streams."""
    h = rng.standard_normal((antennas, streams)) + 1j * rng.standard_normal(
        (antennas, streams))
    frame = frame_record(streams, payload, 1e6, 1)
    bits = rng.integers(0, 2, size=(streams, payload * scheme.bits_per_symbol))
    words = np.stack([bit_words(row, scheme) for row in bits])
    return h @ np.concatenate([frame.pilots, scheme.points[words]], axis=1), frame, words


@pytest.mark.parametrize("streams", [1, 2, 3, 4, 8, 64])
@pytest.mark.parametrize("extra_antennas", [0, 2])
def test_one_svd_gives_numpys_pseudo_inverse_and_condition_number(streams,
                                                                  extra_antennas):
    # the pseudo-inverse bit for bit, the condition number within its bound
    rng = np.random.default_rng(10 * streams + extra_antennas)
    scheme = get_scheme("QPSK")
    for _ in range(4 if streams == 64 else 40):
        means, frame, words = random_frame_means(
            rng, streams + extra_antennas, streams, scheme)
        report = detect(means, scheme, words)
        h_est = report.channel_estimate
        assert np.array_equal(report.detected_symbols,
                              np.linalg.pinv(h_est) @ means[:, frame.pilot_length:])
        assert_condition_number_close(report.condition_number, h_est)


@pytest.mark.parametrize("h_est", [
    np.zeros((2, 2)), np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[1.0, 0.0], [0.0, 1e-9]])],
    ids=["zero", "nan", "inf", "rank_one", "cond_1e9"])
def test_an_uninvertible_estimate_raises_detection_error_without_a_warning(h_est):
    scheme = get_scheme("BPSK")
    words = np.zeros((2, 4), dtype=np.uint8)
    symbols = scheme.points[words]
    # pilots @ pilots^H / pilot_length is the identity, so a finite h_est
    # is estimated as given; inf * 0 makes the inf case's estimate NaN too
    with np.errstate(invalid="ignore"):
        means = h_est @ np.concatenate([make_pilots(2), symbols], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DetectionError) as excinfo:
            detect(means, scheme, words)
    assert not excinfo.value.condition_number <= txrx.CONDITION_LIMIT


def test_expected_shift_derotation():
    # shift the transmit waveform by +3 symbol rates, tell the receiver
    scheme = get_scheme("QPSK")
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=2 * 128)
    symbols = map_bits(bits, scheme)
    frame = frame_record(1, 128, 1e6, 8)
    wave = symbols_to_waveform(np.concatenate([frame.pilots[0], symbols]),
                               8, 8e6, 4.25e9)
    n = np.arange(len(wave))
    shifted = wave.with_samples(wave.samples * np.exp(2j * np.pi * 3e6 * n / 8e6))
    report = receive([shifted], frame, scheme, bit_words(bits, scheme)[None, :],
                     expected_shift=3e6)
    assert report.ber[0] == 0.0
    assert report.evm_percent[0] < 1e-9


def test_detect_rejects_too_few_antennas_and_misshapen_references():
    scheme = get_scheme("QPSK")
    h = np.array([[0.9 + 0.3j, -0.2j], [0.4, 1.1 - 0.5j]])
    rx, frame, words, _ = explicit_link_envelopes(h, scheme, 48, 1e-3, seed=3)
    means = integrate_oracle(rx, frame.num_symbols)
    detect(means, scheme, words)
    with pytest.raises(ContractViolation):  # one antenna for two streams
        detect(means[:1], scheme, words)
    with pytest.raises(ContractViolation):  # one symbol short of the frame
        detect(means[:, 1:], scheme, words)
    with pytest.raises(ContractViolation):  # one word short of the payload
        detect(means, scheme, words[:, 1:])
    with pytest.raises(ContractViolation):  # one stream's words, not a table
        detect(means, scheme, words[0])


def test_detect_refuses_an_empty_payload():
    # the pilots alone: the reference RMS of no symbols would be 0 / 0
    scheme = get_scheme("QPSK")
    means = np.asarray(make_pilots(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation):
            detect(means, scheme, np.zeros((2, 0), dtype=np.uint8))


def test_partition_permutation_leaves_stream_products_unchanged():
    # swapping the channel gains of cells within a stream keeps every
    # effective stream gain, so the received envelopes cannot change
    stream_of_cell = np.array([0, 0, 1, 1, 0, 0, 1, 1])  # left and right halves
    rng = np.random.default_rng(23)
    scheme = get_scheme("QPSK")
    sched = CoefficientSchedule(symbol_coefficients(rng.integers(0, 4, (2, 8)), scheme), 1e6)
    feed = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    obs = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))

    perm = np.arange(8)
    for s in range(2):
        cells = np.flatnonzero(stream_of_cell == s)
        perm[cells] = rng.permutation(cells)
    assert not np.array_equal(perm, np.arange(8))

    carrier = tone_envelope(sched.num_steps * 2, 2e6, 4.25e9)  # two samples a symbol
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
