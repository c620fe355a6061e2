import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metalink.core import ComplexEnvelope, resample_hold, tone_envelope
from metalink.metasurface import (
    StaircaseRampSpec,
    compile_staircase,
    frequency_shift,
)
from metalink.propagation import ChannelSet, surface_pass
from metalink.spectral import (
    Spectrum,
    line_power,
    periodogram,
    staircase_harmonics,
)
import oracles
from oracles import dft_direct

UNIT_CELL = ChannelSet(np.ones(1), np.ones((1, 1)))  # 1x1 surface, unit gains


def sampled_staircase(L, oversample, periods=1):
    """Held staircase phasor as an envelope at `oversample` samples per step."""
    spec = StaircaseRampSpec(period=L * 1e-8, steps_per_period=L)
    sched = compile_staircase(spec, 1e8, duration=periods * L * 1e-8)
    held = resample_hold(sched, oversample * 1e8)
    env = tone_envelope(held.num_steps, held.control_rate, 0.0)
    return surface_pass(env, held, [0], UNIT_CELL)[0], spec


# ---------------------------------------------------------------------------
# periodogram
# ---------------------------------------------------------------------------

def test_bin_centered_tone_occupies_a_single_bin():
    env = tone_envelope(256, 256.0, 0.0, freq_offset=10.0)
    spectrum = periodogram(env)
    assert line_power(spectrum, 10.0) == pytest.approx(1.0, rel=1e-12)
    others = spectrum.power[spectrum.frequencies != 10.0]
    assert np.all(others < 1e-20)


def test_zero_signal_gives_zero_spectrum():
    env = ComplexEnvelope(np.zeros(64, dtype=complex), 64.0, 0.0)
    assert np.all(periodogram(env).power == 0.0)


def test_two_tone_spectrum_obeys_parseval():
    env = tone_envelope(128, 128.0, 0.0, freq_offset=5.0)
    two = env.with_samples(env.samples
                           + tone_envelope(128, 128.0, 0.0, freq_offset=-11.0).samples)
    spectrum = periodogram(two)
    mean_square = np.mean(np.abs(two.samples) ** 2)
    assert spectrum.total_power == pytest.approx(mean_square, rel=1e-9)
    assert line_power(spectrum, 5.0) == pytest.approx(1.0, rel=1e-9)
    assert line_power(spectrum, -11.0) == pytest.approx(1.0, rel=1e-9)


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([32, 63, 128]))
def test_parseval_holds_for_random_signals(seed, n):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    env = ComplexEnvelope(samples, float(n), 0.0)
    spectrum = periodogram(env)
    assert spectrum.total_power == pytest.approx(
        np.mean(np.abs(samples) ** 2), rel=1e-9)


def test_bins_span_half_open_interval():
    even = periodogram(tone_envelope(8, 8.0, 0.0))
    assert even.frequencies[0] == -3.0 and even.frequencies[-1] == 4.0
    odd = periodogram(tone_envelope(7, 7.0, 0.0))
    assert odd.frequencies[0] == -3.0 and odd.frequencies[-1] == 3.0


@pytest.mark.parametrize("n", [1, 2, 3, 4096, 4097, 12800])
def test_bin_grid_is_formed_from_the_bin_count_and_resolution(n):
    # the grid is not stored; each read forms the same bits that the
    # periodogram once stored, arange(h + 1 - n, h + 1) * resolution
    rate = 25.6e9
    spectrum = periodogram(tone_envelope(n, rate, 0.0))
    h = n // 2
    want = np.arange(h + 1 - n, h + 1) * (rate / n)
    got = spectrum.frequencies
    assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))
    assert spectrum.first_bin == h + 1 - n and spectrum.resolution == rate / n


@pytest.mark.parametrize("resolution", [0.0, -1.0, np.inf, np.nan])
def test_spectrum_rejects_a_resolution_no_grid_can_have(resolution):
    with pytest.raises(ValueError, match="resolution"):
        Spectrum(np.ones(4), resolution)


@pytest.mark.parametrize("power", [np.ones((2, 2)), np.ones(()), np.empty(0)])
def test_spectrum_power_must_be_one_dimensional_bins(power):
    with pytest.raises(ValueError, match="1-D"):
        Spectrum(power, 1.0)


def test_shift_theorem_circularly_shifts_the_spectrum():
    env = tone_envelope(128, 128.0, 0.0, freq_offset=7.0)
    base = periodogram(env)
    shifted = periodogram(frequency_shift(env, 13.0))
    k = np.argsort(((base.frequencies + 64) % 128))  # unused ordering guard
    assert k.size == 128
    assert line_power(shifted, 20.0) == pytest.approx(1.0, rel=1e-9)
    rolled = np.roll(base.power, 13)
    assert np.allclose(shifted.power, rolled, atol=1e-15)


# ---------------------------------------------------------------------------
# line_power
# ---------------------------------------------------------------------------

def test_line_power_of_empty_bin_is_tiny():
    env = tone_envelope(64, 64.0, 0.0, freq_offset=3.0)
    spectrum = periodogram(env)
    assert line_power(spectrum, -5.0) < 1e-20


def test_line_power_rejects_off_bin_frequency():
    spectrum = periodogram(tone_envelope(64, 64.0, 0.0))
    with pytest.raises(ValueError):
        line_power(spectrum, 2.5)


def _power_or_error(find, spec, freq):
    try:
        return find(spec, freq)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("n, rate", [(1, 1.0), (2, 2.0), (7, 7.0), (64, 64.0),
                                     (257, 25.6e9), (1000, 3.0)])
def test_line_power_agrees_with_the_argmin_oracle(n, rate):
    rng = np.random.default_rng(n)
    spectrum = periodogram(ComplexEnvelope(
        rng.standard_normal(n) + 1j * rng.standard_normal(n), rate, 0.0))
    res, grid = spectrum.resolution, spectrum.frequencies
    edges = [grid[0], grid[-1], grid[0] - res, grid[-1] + res,
             grid[0] - 0.5e-6 * res, grid[-1] + 0.5e-6 * res,
             grid[0] - 2e-6 * res, grid[-1] + 2e-6 * res, -rate, rate, 1e300, -1e300]
    off = list(grid[:50] + 0.5 * res) + list(grid[:50] + 0.3e-6 * res) + list(
        grid[:50] - 3e-6 * res) + list(rng.uniform(-rate, rate, 50))
    for freq in list(grid) + edges + off + [np.inf, -np.inf]:
        want = _power_or_error(oracles.line_power, spectrum, freq)
        assert _power_or_error(line_power, spectrum, freq) == want, freq
    # every bin centre is found
    assert [line_power(spectrum, f) for f in grid] == spectrum.power.tolist()


@pytest.mark.parametrize("size, stride", [(1, 1), (1, 7), (5, 2), (8, 3), (33, 37),
                                          (64, 64), (1000, 5), (1025, 2)])
def test_a_lattice_spectrum_reads_as_its_dense_twin(size, stride):
    # the twin holds values on the bins k that stride divides, ascending,
    # and 0 on every other bin; a sum of 1e3 or more bins rounds differently
    # in another order, and total_power keeps the dense one
    rng = np.random.default_rng(size * stride)
    values = rng.exponential(size=size)
    n = size * stride
    k = np.arange(n // 2 + 1 - n, n // 2 + 1)
    dense = np.zeros(n)
    dense[k % stride == 0] = values
    lattice, twin = Spectrum(values, 1e3, stride), Spectrum(dense, 1e3)
    assert np.array_equal(lattice.power, dense)
    assert np.array_equal(lattice.frequencies, twin.frequencies)
    grid = twin.frequencies
    assert [line_power(lattice, f) for f in grid] == [line_power(twin, f) for f in grid]
    assert lattice.total_power.hex() == float(dense.sum()).hex()


@pytest.mark.parametrize("stride", [0, -1, 1.5])
def test_spectrum_stride_is_a_positive_integer(stride):
    with pytest.raises(ValueError, match="stride"):
        Spectrum(np.ones(4), 1.0, stride)


@pytest.mark.parametrize("freq", [np.nan, np.inf, -np.inf, float("nan")])
def test_line_power_rejects_a_frequency_that_is_not_finite(freq):
    # argmin over all-NaN distances picks bin 0, and nan > tolerance is
    # False, so an argmin search returns bin 0's power for NaN
    spectrum = periodogram(tone_envelope(64, 64.0, 0.0))
    with pytest.raises(ValueError, match="not a bin center"):
        line_power(spectrum, freq)


def test_staircase_line_fraction_matches_closed_form():
    # 20-step staircase: fraction sin^2(pi/20)/(pi/20)^2 ~ 0.9918 (-0.036 dB)
    env, spec = sampled_staircase(L=20, oversample=256, periods=10)
    spectrum = periodogram(env)
    fraction = line_power(spectrum, spec.frequency_shift) / spectrum.total_power
    expected = (np.sin(np.pi / 20) / (np.pi / 20)) ** 2
    assert expected == pytest.approx(0.9918, abs=5e-5)
    assert fraction == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("L", [2, 3, 4, 8, 20, 64])
def test_conversion_loss_matches_sinc_squared(L):
    # sampling 256 times per step puts the measured fraction about
    # 5e-5 / L^2 (relative) above the continuous-time sinc^2(pi/L)
    env, spec = sampled_staircase(L, oversample=256, periods=8)
    spectrum = periodogram(env)
    fraction = line_power(spectrum, spec.frequency_shift) / spectrum.total_power
    assert fraction == pytest.approx(np.sinc(1 / L) ** 2, rel=2e-5)


# ---------------------------------------------------------------------------
# staircase harmonics
# ---------------------------------------------------------------------------

def test_square_wave_fundamental_is_two_over_pi():
    amp = staircase_harmonics(2, [1])[0]
    assert amp == pytest.approx(2 / np.pi, rel=1e-12)
    spurs = staircase_harmonics(2, [3, -1, 5])
    assert spurs == pytest.approx([2 / (3 * np.pi), 2 / np.pi, 2 / (5 * np.pi)],
                                  rel=1e-12)


def test_twenty_step_amplitudes():
    amps = staircase_harmonics(20, [1, 1 - 20, 1 + 20])
    c1 = np.sin(np.pi / 20) / (np.pi / 20)
    assert c1 == pytest.approx(0.99589, abs=1e-5)
    assert amps[0] == pytest.approx(c1, rel=1e-12)
    assert amps[1] == pytest.approx(c1 / 19, rel=1e-12)
    assert amps[2] == pytest.approx(c1 / 21, rel=1e-12)


@pytest.mark.parametrize("L", [2, 4, 8, 20])
def test_lines_exist_only_on_the_harmonic_lattice(L):
    q = np.arange(-2 * L, 2 * L + 1)
    amps = staircase_harmonics(L, q)
    on_lattice = (q - 1) % L == 0
    assert np.all(amps[~on_lattice] == 0.0)
    assert np.all(amps[on_lattice] > 0)


def test_closed_form_harmonics_match_the_per_step_integral():
    # sin(pi*q/L) is +-sin(pi/L) on the lattice, so the closed form reduces
    # no large argument; the integral sums L steps and rounds in each
    for L in range(2, 257):
        q = np.arange(-3 * L, 3 * L + 1)
        q = q[(q - 1) % L == 0]
        want = [oracles.staircase_harmonic(L, int(k)) for k in q]
        np.testing.assert_allclose(staircase_harmonics(L, q), want, rtol=1e-12, atol=0)


def test_fundamental_approaches_one_for_fine_staircases():
    amps = [staircase_harmonics(L, [1])[0] for L in (2, 4, 20, 64, 256)]
    assert all(a < b for a, b in zip(amps, amps[1:]))
    assert amps[-1] > 0.9999


def test_measured_lines_converge_to_predicted_amplitudes():
    env, spec = sampled_staircase(L=8, oversample=64, periods=4)
    spectrum = periodogram(env)
    for q in (1, 1 - 8, 1 + 8):
        measured = np.sqrt(line_power(spectrum, q * spec.frequency_shift))
        predicted = staircase_harmonics(8, [q])[0]
        assert measured == pytest.approx(predicted, rel=1e-3)


# ---------------------------------------------------------------------------
# direct DFT oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [16, 257, 1024, 4096])
def test_fast_transform_agrees_with_direct_dft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fast = np.fft.fft(x)
    direct = dft_direct(x)
    assert np.allclose(fast, direct, rtol=1e-9, atol=1e-9 * np.abs(direct).max())


def test_direct_dft_of_single_tone():
    n = 64
    x = np.exp(2j * np.pi * 5 * np.arange(n) / n)
    out = dft_direct(x)
    assert abs(out[5]) == pytest.approx(n, rel=1e-12)
    mask = np.ones(n, dtype=bool)
    mask[5] = False
    assert np.all(np.abs(out[mask]) < 1e-9)
