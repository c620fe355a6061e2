import numpy as np
import pytest
from hypothesis import given, strategies as st

from metalink.core import (
    CoefficientSchedule,
    ConfigurationError,
    ContractViolation,
    PointSet,
    SurfaceGeometry,
    cell_positions,
    resample_hold,
    tone_envelope,
    wavelength_of,
)
from metalink.propagation import (
    ChannelModel,
    ChannelSet,
    build_channels,
    surface_pass,
)
from oracles import free_space_gain

UNIT_CELL = ChannelSet(np.ones(1), np.ones((1, 1)))  # 1x1 surface, unit gains


def ones_schedule(streams, steps, rate=1e8):
    return CoefficientSchedule(np.ones((streams, steps), dtype=complex), rate)


def per_cell_pass(incident, values, feed_gains, obs_gains, noise_psd=0.0,
                  noise_seeds=None):
    """Surface pass with one stream per cell, so each cell has its own row."""
    channels = ChannelSet(feed_gains, obs_gains)
    schedule = CoefficientSchedule(values, incident.sample_rate)
    return surface_pass(incident, schedule, np.arange(channels.num_cells),
                        channels, noise_psd, noise_seeds)


# ---------------------------------------------------------------------------
# free-space gain
# ---------------------------------------------------------------------------

def test_gain_at_one_wavelength():
    g = free_space_gain([0, 0, 0], [0, 0, 1.0], wavelength=1.0)
    assert abs(g) == pytest.approx(1 / (4 * np.pi))
    assert np.angle(g) == pytest.approx(0.0, abs=1e-12)  # -2*pi wraps to 0


def test_gain_at_half_wavelength_flips_sign():
    g = free_space_gain([0, 0, 0], [0, 0, 0.5], wavelength=1.0)
    assert abs(g) == pytest.approx(1 / (2 * np.pi))
    assert abs(np.angle(g)) == pytest.approx(np.pi, abs=1e-12)


def test_doubling_distance_exactly_halves_magnitude():
    near = free_space_gain([0, 0, 0], [0, 0, 0.37], wavelength=0.07)
    far = free_space_gain([0, 0, 0], [0, 0, 0.74], wavelength=0.07)
    assert abs(far) == abs(near) / 2


def test_zero_distance_is_rejected():
    with pytest.raises(ValueError):
        free_space_gain([1, 2, 3], [1, 2, 3], wavelength=1.0)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 3),
       st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 3))
def test_free_space_gain_is_reciprocal(ax, ay, az, bx, by, bz):
    a, b = [ax, ay, az], [bx, by, bz + 10.0]  # keep the points apart
    g_ab = free_space_gain(a, b, wavelength=0.07)
    g_ba = free_space_gain(b, a, wavelength=0.07)
    assert g_ab == g_ba


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 3),
       st.floats(-2, 2), st.floats(-2, 2), st.floats(0.1, 3))
def test_build_channels_free_space_gains_are_reciprocal(ax, ay, az, bx, by, bz):
    # swapping which of A and B is the feed swaps the feed and observation legs
    geo = SurfaceGeometry(3, 4, 0.035)
    a, b = [ax, ay, az], [bx, by, bz]
    model = ChannelModel("free_space", wavelength=0.07)
    ab = build_channels(geo, PointSet(np.array([a, b]), ("feed", "rx")), model)
    ba = build_channels(geo, PointSet(np.array([b, a]), ("feed", "rx")), model)
    np.testing.assert_allclose(ba.feed_gains, ab.obs_gains[:, 0], rtol=1e-12)
    np.testing.assert_allclose(ba.obs_gains[:, 0], ab.feed_gains, rtol=1e-12)


# ---------------------------------------------------------------------------
# build_channels
# ---------------------------------------------------------------------------

def test_identity_channels_are_all_ones():
    geo = SurfaceGeometry(2, 3, 0.05)
    points = PointSet(np.array([[0, 0, 0.5], [0.1, 0, 0.5]]), ("feed", "rx"))
    chans = build_channels(geo, points, ChannelModel("identity"))
    assert np.all(chans.feed_gains == 1.0)
    assert chans.obs_gains.shape == (6, 1)
    assert np.all(chans.obs_gains == 1.0)


def test_single_pair_reduces_to_free_space_gain():
    geo = SurfaceGeometry(1, 1, 0.05)
    points = PointSet(np.array([[0, 0, 1.0]]), ("rx",))
    chans = build_channels(geo, points, ChannelModel("free_space", wavelength=1.0))
    assert chans.obs_gains[0, 0] == free_space_gain([0, 0, 0], [0, 0, 1.0], 1.0)
    assert np.all(chans.feed_gains == 1.0)  # no feed point: ideal illumination


def test_grid_gains_match_elementwise_oracle():
    geo = SurfaceGeometry(2, 2, 0.04)
    positions = np.array([[0, 0, 0.3], [0.2, -0.1, 0.5], [0, 0.1, 0.25]])
    points = PointSet(positions, ("feed", "rx", "rx"))
    wavelength = wavelength_of(4.25e9)
    chans = build_channels(geo, points, ChannelModel("free_space",
                                                     wavelength=wavelength))
    cells = cell_positions(geo)
    assert chans.obs_gains.shape == (4, 2)
    for c in range(4):
        assert chans.feed_gains[c] == pytest.approx(
            free_space_gain(positions[0], cells[c], wavelength), rel=1e-12)
        for p, pos in enumerate(positions[1:]):
            assert chans.obs_gains[c, p] == pytest.approx(
                free_space_gain(pos, cells[c], wavelength), rel=1e-12)


def test_explicit_matrix_is_copied_through():
    geo = SurfaceGeometry(1, 2, 0.05)
    points = PointSet(np.array([[0, 0, 0.5]]), ("rx",))
    matrix = np.array([[0.5 + 0.5j], [-0.25j]])
    chans = build_channels(geo, points, ChannelModel("explicit_matrix",
                                                     matrix=matrix))
    assert np.array_equal(chans.obs_gains, matrix)


def test_explicit_matrix_dimension_mismatch():
    geo = SurfaceGeometry(2, 2, 0.05)
    points = PointSet(np.array([[0, 0, 0.5]]), ("rx",))
    with pytest.raises(ConfigurationError):
        build_channels(geo, points, ChannelModel("explicit_matrix",
                                                 matrix=np.ones((3, 1))))


@pytest.mark.parametrize("spacing, wavelength", [
    (1e300, 0.07),  # the distances overflow
    (0.05, np.inf),  # lambda / r is infinite
], ids=["huge_pitch", "infinite_wavelength"])
def test_non_finite_gains_are_named(spacing, wavelength):
    geo = SurfaceGeometry(2, 2, spacing)
    points = PointSet(np.array([[0, 0, 0.5], [0.3, 0.1, 0.6]]), ("feed", "rx"))
    with pytest.raises(ConfigurationError,
                       match="not finite: 4 feed-to-cell and 4 cell-to-point gains"):
        build_channels(geo, points, ChannelModel("free_space", wavelength=wavelength))


def test_two_feeds_are_rejected():
    geo = SurfaceGeometry(1, 1, 0.05)
    points = PointSet(np.array([[0, 0, 0.5], [0, 0, 1.0]]), ("feed", "feed"))
    with pytest.raises(ConfigurationError):
        build_channels(geo, points, ChannelModel("identity"))


# ---------------------------------------------------------------------------
# feed leg
# ---------------------------------------------------------------------------

def test_unit_feed_gains_pass_carrier_unchanged():
    # point p observes only cell p, so rx_p is what cell p reflects
    carrier = tone_envelope(16, 1e8, 4.25e9)
    fields = per_cell_pass(carrier, np.ones((3, 16)), np.ones(3), np.eye(3))
    assert len(fields) == 3
    for env in fields:
        assert np.array_equal(env.samples, carrier.samples)


def test_zero_feed_gain_silences_a_cell():
    carrier = tone_envelope(16, 1e8, 4.25e9)
    fields = per_cell_pass(carrier, np.ones((2, 16)), [0.0, 1.0], np.eye(2))
    assert np.all(fields[0].samples == 0.0)


def test_spherical_feed_over_16x16_matches_oracle():
    geo = SurfaceGeometry(16, 16, 0.0353)
    wavelength = 0.0706
    feed_pos = np.array([0.0, 0.0, 0.3])
    points = PointSet(np.array([feed_pos, [0.5, 0, 0.5]]), ("feed", "rx"))
    chans = build_channels(geo, points, ChannelModel("free_space",
                                                     wavelength=wavelength))
    carrier = tone_envelope(4, 1e8, 4.25e9)
    probed = (0, 17, 255)
    taps = np.zeros((geo.num_cells, len(probed)))
    taps[probed, range(len(probed))] = 1.0  # point k observes cell probed[k]
    fields = per_cell_pass(carrier, np.ones((geo.num_cells, 4)),
                           chans.feed_gains, taps)
    cells = cell_positions(geo)
    for k, c in enumerate(probed):
        expected = free_space_gain(feed_pos, cells[c], wavelength)
        assert np.allclose(fields[k].samples, expected * carrier.samples,
                           rtol=1e-12)


# ---------------------------------------------------------------------------
# superposition at the observation points
# ---------------------------------------------------------------------------

def test_single_cell_unit_gain_is_identity():
    env = tone_envelope(32, 1e8, 4.25e9, freq_offset=1e6)
    out = surface_pass(env, ones_schedule(1, 32), [0], UNIT_CELL)[0]
    assert np.array_equal(out.samples, env.samples)


def test_opposite_gains_cancel():
    env = tone_envelope(32, 1e8, 4.25e9, freq_offset=1e6)
    out = surface_pass(env, ones_schedule(1, 32), [0, 0],
                       ChannelSet(np.ones(2), np.array([[1.0], [-1.0]])))[0]
    assert np.all(out.samples == 0.0)


def test_superpose_matches_brute_force_double_sum():
    rng = np.random.default_rng(42)
    geo = SurfaceGeometry(4, 4, 0.05)
    incident = tone_envelope(64, 1e8, 0.0, freq_offset=3e6)
    values = np.exp(1j * rng.uniform(0, 2 * np.pi, (geo.num_cells, 64)))
    feed = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    gains = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    out = per_cell_pass(incident, values, feed, gains)
    for p in range(2):
        brute = np.zeros(64, dtype=complex)
        for n in range(geo.rows):
            for m in range(geo.cols):
                c = n * geo.cols + m
                brute = brute + gains[c, p] * values[c] * feed[c] * incident.samples
        scale = np.max(np.abs(brute))
        assert np.all(np.abs(out[p].samples - brute) <= 1e-12 * scale)


@pytest.mark.parametrize("gain", [1e200, 1e154], ids=["product_overflows",
                                                    "power_overflows"])
def test_surface_pass_rejects_gains_whose_power_overflows(gain):
    # 1e200 * 1e200 overflows the effective gain itself; 2 x 1e154 is finite,
    # but its square, the received power, is not
    big = ChannelSet(np.full(2, gain), np.ones((2, 1)))
    with pytest.raises(ConfigurationError, match="power would overflow"):
        surface_pass(tone_envelope(4, 1e8, 4.25e9), ones_schedule(1, 4), [0, 0], big)


def test_superpose_rejects_mismatched_envelopes():
    env = tone_envelope(32, 1e8, 4.25e9)
    unit = ChannelSet(np.ones(2), np.ones((2, 1)))
    with pytest.raises(ContractViolation):
        surface_pass(env, ones_schedule(1, 16), [0, 0], unit)
    with pytest.raises(ContractViolation):
        surface_pass(env, ones_schedule(1, 32, rate=2e8), [0, 0], unit)
    with pytest.raises(ContractViolation):  # one stream id for two cells
        surface_pass(env, ones_schedule(1, 32), [0], unit)
    with pytest.raises(ContractViolation):  # noise needs a seed per point
        surface_pass(env, ones_schedule(1, 32), [0, 0], unit, noise_psd=0.1)
    env = tone_envelope(30, 1e8, 4.25e9)
    with pytest.raises(ContractViolation):  # 1e8 / 3e7 is not a whole number
        surface_pass(env, ones_schedule(1, 9, rate=3e7), [0, 0], unit)
    with pytest.raises(ContractViolation):  # 2 steps x hold 10 miss 30 samples
        surface_pass(env, ones_schedule(1, 2, rate=1e7), [0, 0], unit)
    with pytest.raises(ContractViolation):  # 4 steps x hold 10 overrun them
        surface_pass(env, ones_schedule(1, 4, rate=1e7), [0, 0], unit)


@pytest.mark.parametrize("noise_psd", [-0.1, -1e-300, float("nan")])
def test_negative_or_nan_noise_level_is_rejected(noise_psd):
    # it must not read as "no noise" and return the noiseless envelope
    env = tone_envelope(32, 1e8, 4.25e9)
    with pytest.raises(ContractViolation, match="noise_psd"):
        surface_pass(env, ones_schedule(1, 32), [0], UNIT_CELL, noise_psd, [0])


@pytest.mark.parametrize("noise_psd", [0.0, 0.1])
@pytest.mark.parametrize("hold", [1, 3, 16])
@pytest.mark.parametrize("streams", [1, 2])
def test_implicit_hold_equals_explicit_hold(streams, hold, noise_psd):
    # a control-rate schedule is held inside the pass exactly as
    # resample_hold holds it up to the envelope rate
    rng = np.random.default_rng(100 * streams + hold)
    steps = 24
    schedule = CoefficientSchedule(
        rng.uniform(0.1, 1.0, (streams, steps))
        * np.exp(1j * rng.uniform(0, 2 * np.pi, (streams, steps))), 1e7)
    incident = tone_envelope(steps * hold, hold * 1e7, 4.25e9, freq_offset=1.3e6)
    stream_of_cell = np.arange(6) % streams
    channels = ChannelSet(rng.standard_normal(6) + 1j * rng.standard_normal(6),
                          rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    seeds = [11, 12, 13]
    implicit = surface_pass(incident, schedule, stream_of_cell, channels,
                            noise_psd, seeds)
    explicit = surface_pass(incident, resample_hold(schedule, incident.sample_rate),
                            stream_of_cell, channels, noise_psd, seeds)
    for a, b in zip(implicit, explicit):
        assert np.array_equal(a.samples, b.samples)


def test_superpose_is_linear_in_gains():
    rng = np.random.default_rng(5)
    incident = tone_envelope(64, 1e8, 0.0, freq_offset=1e6)
    values = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 64)))
    g1 = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    g2 = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    feed = np.ones(3)
    lhs = per_cell_pass(incident, values, feed, g1 + g2)[0].samples
    rhs = (per_cell_pass(incident, values, feed, g1)[0].samples
           + per_cell_pass(incident, values, feed, g2)[0].samples)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


def test_scaling_feed_gains_scales_every_point():
    rng = np.random.default_rng(8)
    incident = tone_envelope(64, 1e8, 0.0, freq_offset=-2e6)
    values = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 64)))
    stream_of_cell = rng.integers(0, 2, 12)
    feed = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    obs = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    schedule = CoefficientSchedule(values, 1e8)
    a = 0.6 - 1.3j
    base = surface_pass(incident, schedule, stream_of_cell, ChannelSet(feed, obs))
    scaled = surface_pass(incident, schedule, stream_of_cell,
                          ChannelSet(a * feed, obs))
    for b, s in zip(base, scaled):
        assert np.allclose(s.samples, a * b.samples, rtol=1e-12, atol=1e-15)


def test_superpose_is_linear_in_each_field():
    # the cells' reflected fields add: scaling one cell's feed gain by alpha
    # adds (alpha - 1) times that cell's contribution
    incident = tone_envelope(64, 1e8, 0.0, freq_offset=1e6)
    values = np.stack([np.ones(64), np.exp(2j * np.pi * 3e6 * np.arange(64) / 1e8)])
    gains = np.array([[0.4 - 0.1j], [-0.7 + 0.3j]])
    alpha = 1.7 - 0.6j
    lhs = per_cell_pass(incident, values, [alpha, 1.0], gains)[0].samples
    rhs = (per_cell_pass(incident, values, [1.0, 1.0], gains)[0].samples
           + (alpha - 1) * gains[0, 0] * values[0] * incident.samples)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# receiver noise
# ---------------------------------------------------------------------------

def test_noise_is_deterministic_given_seed():
    env = tone_envelope(128, 1e8, 4.25e9)

    def noisy(seed):
        return surface_pass(env, ones_schedule(1, 128), [0], UNIT_CELL,
                            noise_psd=0.1, noise_seeds=[seed])[0]

    out1, out2, out3 = noisy(1234), noisy(1234), noisy(1235)
    assert np.array_equal(out1.samples, out2.samples)
    assert not np.array_equal(out1.samples, out3.samples)


def test_noise_variance_is_calibrated():
    env = tone_envelope(200_000, 1e8, 4.25e9, amplitude=0.0)
    out = surface_pass(env, ones_schedule(1, 200_000), [0], UNIT_CELL,
                       noise_psd=0.25, noise_seeds=[9])[0]
    measured = np.mean(np.abs(out.samples) ** 2)
    assert measured == pytest.approx(0.25, rel=0.02)


def test_single_cell_chain_reduces_to_reflection_product():
    # identity channel, one cell: end to end equals A*exp(j*phi) * input exactly
    carrier = tone_envelope(64, 1e8, 4.25e9, freq_offset=2e6)
    coeff = 0.8 * np.exp(0.3j)
    sched = CoefficientSchedule(np.full((1, 64), coeff), 1e8)
    out = surface_pass(carrier, sched, [0], UNIT_CELL)[0]
    assert np.array_equal(out.samples, carrier.samples * coeff)
