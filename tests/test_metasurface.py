import numpy as np
import pytest
from hypothesis import given, strategies as st

from metalink.core import (
    TWO_PI,
    CoefficientSchedule,
    ComplexEnvelope,
    ConfigurationError,
    ContractViolation,
    resample_hold,
    tone_envelope,
    wrap_phase,
)
from metalink.metasurface import (
    CONTINUOUS,
    QuantizationModel,
    StaircaseRampSpec,
    compile_staircase,
    frequency_shift,
    quantize_values,
    ramp_period,
)
from metalink.propagation import ChannelSet, surface_pass
from metalink.spectral import line_power, periodogram

from oracles import tone

UNIT_CELL = ChannelSet(np.ones(1), np.ones((1, 1)))  # 1x1 surface, unit gains


def constant_schedule(value, steps, rate=1e8, cells=1):
    return CoefficientSchedule(np.full((cells, steps), value, dtype=complex), rate)


def reflect_once(incident, schedule):
    """Envelope behind a single-cell, unit-gain surface driven by `schedule`."""
    return surface_pass(incident, schedule, [0], UNIT_CELL)[0]


# ---------------------------------------------------------------------------
# reflection product A * exp(j*phi) * incident
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("amp,phase,incident,expected", [
    (1.0, 0.0, 1 + 0j, 1 + 0j),
    (0.5, np.pi, 1 + 0j, -0.5 + 0j),
    (1.0, np.pi / 2, 2 + 0j, 2j),
])
def test_reflect(amp, phase, incident, expected):
    env = ComplexEnvelope(np.array([incident]), 1e8, 0.0)
    out = reflect_once(env, constant_schedule(amp * np.exp(1j * phase), 1))
    assert out.samples[0] == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------------------
# schedule application on a single-cell surface
# ---------------------------------------------------------------------------

def test_identity_coefficient_passes_envelope_through():
    env = tone_envelope(64, 1e8, 4.25e9, freq_offset=1e6)
    out = reflect_once(env, constant_schedule(1.0, 64))
    assert np.array_equal(out.samples, env.samples)
    assert out.sample_rate == env.sample_rate
    assert out.carrier_freq == env.carrier_freq


def test_pi_phase_negates_tone():
    env = tone_envelope(32, 1e8, 4.25e9)
    out = reflect_once(env, constant_schedule(-1.0, 32))
    assert np.allclose(out.samples, -env.samples, atol=1e-15)


def test_apply_schedule_rejects_rate_and_length_mismatch():
    env = tone_envelope(32, 1e8, 4.25e9)
    with pytest.raises(ContractViolation):
        reflect_once(env, constant_schedule(1.0, 32, rate=2e8))
    with pytest.raises(ContractViolation):
        reflect_once(env, constant_schedule(1.0, 16))
    with pytest.raises(ContractViolation):  # stream id beyond the schedule rows
        surface_pass(env, constant_schedule(1.0, 32), [3], UNIT_CELL)


def test_staircase_on_tone_moves_line_down_by_one_over_period():
    # L=20 steps over a 4 us period -> line at -250 kHz
    spec = StaircaseRampSpec(period=4e-6, steps_per_period=20)
    control_rate = 20 / 4e-6  # 5 MHz
    sched = compile_staircase(spec, control_rate, duration=8 * 4e-6)
    held = resample_hold(sched, 16 * control_rate)
    env = tone_envelope(held.num_steps, held.control_rate, 4.25e9)
    out = reflect_once(env, held)
    spectrum = periodogram(out)
    strongest = spectrum.frequencies[np.argmax(spectrum.power)]
    assert strongest == pytest.approx(-250e3, abs=1e-9)


def test_apply_schedule_is_linear():
    rng = np.random.default_rng(7)
    sched = CoefficientSchedule(
        np.exp(1j * rng.uniform(0, TWO_PI, size=(1, 128))), 1e8)
    e1 = tone_envelope(128, 1e8, 0.0, freq_offset=1e6)
    e2 = tone_envelope(128, 1e8, 0.0, freq_offset=-3e6)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    combined = e1.with_samples(a * e1.samples + b * e2.samples)
    lhs = reflect_once(combined, sched).samples
    rhs = (a * reflect_once(e1, sched).samples
           + b * reflect_once(e2, sched).samples)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


@given(st.integers(0, 2 ** 32 - 1))
def test_output_power_never_exceeds_input_power(seed):
    rng = np.random.default_rng(seed)
    values = (rng.uniform(0, 1, (1, 32))
              * np.exp(1j * rng.uniform(0, TWO_PI, (1, 32))))
    sched = CoefficientSchedule(values, 1e8)
    env = tone(32, 1e8, 0.0, amplitude=2.0, freq_offset=1e6)
    out = reflect_once(env, sched)
    assert np.all(np.abs(out.samples) <= np.abs(env.samples) * (1 + 1e-12))


# ---------------------------------------------------------------------------
# compile_staircase
# ---------------------------------------------------------------------------

def test_four_step_down_ramp_phases():
    sched = compile_staircase(StaircaseRampSpec(period=4e-8, steps_per_period=4),
                              control_rate=1e8, duration=4e-8)
    phases = wrap_phase(np.angle(sched.values[0]))
    assert phases == pytest.approx([0.0, 3 * np.pi / 2, np.pi, np.pi / 2])


def test_two_step_ramp_is_square_wave():
    sched = compile_staircase(StaircaseRampSpec(period=2e-8, steps_per_period=2),
                              control_rate=1e8, duration=8e-8)
    assert np.allclose(sched.values[0], [1, -1, 1, -1, 1, -1, 1, -1], atol=1e-15)


def test_twenty_step_ramp_at_100mhz_control_shifts_by_5mhz():
    # 20 steps at a 100 MHz control rate: period 200 ns, shift magnitude 5 MHz
    spec = StaircaseRampSpec(period=2e-7, steps_per_period=20)
    sched = compile_staircase(spec, control_rate=1e8, duration=2e-6)
    assert sched.num_steps == 200
    assert spec.frequency_shift == pytest.approx(-5e6)
    assert abs(spec.frequency_shift) == pytest.approx(1 / spec.period)


def test_up_ramp_mirrors_down_ramp():
    down = compile_staircase(StaircaseRampSpec(period=4e-8, steps_per_period=4),
                             control_rate=1e8, duration=4e-8)
    up = compile_staircase(
        StaircaseRampSpec(period=4e-8, steps_per_period=4, direction=1),
        control_rate=1e8, duration=4e-8)
    assert np.allclose(up.values, np.conj(down.values), atol=1e-15)


def test_staircase_is_periodic_in_l_samples():
    spec = StaircaseRampSpec(period=2e-7, steps_per_period=20)
    sched = compile_staircase(spec, control_rate=1e8, duration=2e-6)
    tiled = sched.values[0].reshape(-1, 20)
    assert np.array_equal(tiled, np.broadcast_to(tiled[0], tiled.shape))


@pytest.mark.parametrize("partial", [False, True], ids=["whole", "partial"])
@pytest.mark.parametrize("amplitude", [1.0, 0.8, 0.0])
@pytest.mark.parametrize("direction", [-1, 1])
@pytest.mark.parametrize("L", [2, 3, 7, 20, 64])
def test_a_schedule_is_the_whole_duration_ramp_bit_for_bit(L, direction, amplitude,
                                                           partial):
    # compile_staircase repeats ramp_period's L values; the phase of each
    # step formed over the whole duration gives the same bits, for whole
    # periods and for a last period cut one step short
    n = 3 * L + (L - 1 if partial else 0)
    spec = StaircaseRampSpec(L * 1e-8, L, direction, amplitude)
    sched = compile_staircase(spec, 1e8, n * 1e-8)
    whole = spec.amplitude * np.exp(1j * (spec.direction * TWO_PI * (np.arange(n) % L) / L))
    assert np.array_equal(sched.values[0], whole)
    assert np.array_equal(ramp_period(spec), whole[:L])


def test_compile_rejects_fractional_samples_per_period():
    spec = StaircaseRampSpec(period=2e-7, steps_per_period=20)
    with pytest.raises(ConfigurationError):
        compile_staircase(spec, control_rate=1.5e8, duration=2e-6)


def test_shifted_line_fraction_grows_with_step_count():
    # fixed ramp period, finer and finer staircases
    period = 2e-7
    fractions = []
    for L in (2, 4, 20, 64):
        spec = StaircaseRampSpec(period=period, steps_per_period=L)
        control_rate = L / period
        sched = compile_staircase(spec, control_rate, duration=4 * period)
        held = resample_hold(sched, 16 * control_rate)
        env = tone_envelope(held.num_steps, held.control_rate, 0.0)
        spectrum = periodogram(reflect_once(env, held))
        fractions.append(line_power(spectrum, spec.frequency_shift)
                         / spectrum.total_power)
    assert all(a < b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > 0.999


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def snap(amplitude, phase, model):
    """Quantized (amplitude, phase) of the coefficient A * exp(j*phi)."""
    z = quantize_values(np.array([amplitude * np.exp(1j * phase)]), model)[0]
    return abs(z), wrap_phase(np.angle(z))


def test_continuous_model_is_identity():
    values = np.array([0.77 * np.exp(1.234j)])
    assert quantize_values(values, CONTINUOUS) is values


def test_two_level_phase_snaps_to_nearest():
    model = QuantizationModel(phase_levels=2)
    assert snap(1.0, 0.4 * np.pi, model)[1] == 0.0
    assert snap(1.0, 0.6 * np.pi, model)[1] == pytest.approx(np.pi)


def test_exact_tie_breaks_to_lower_level_index():
    model = QuantizationModel(phase_levels=4)
    # 0.25*pi sits exactly between levels 0 and pi/2
    assert snap(1.0, 0.25 * np.pi, model)[1] == 0.0
    # 1.75*pi ties between level 3 (3pi/2) and level 0 (2pi); index 0 wins
    assert snap(1.0, 1.75 * np.pi, model)[1] == 0.0


def test_amplitude_quantization_levels():
    model = QuantizationModel(amplitude_levels=3)  # levels {0, 0.5, 1}
    assert snap(0.6, 0.0, model)[0] == 0.5
    assert snap(0.9, 0.0, model)[0] == 1.0
    # exact tie at 0.25 goes down to 0
    assert snap(0.25, 0.0, model)[0] == 0.0


@pytest.mark.parametrize("model", [QuantizationModel(phase_levels=4),
                                   QuantizationModel(amplitude_levels=3),
                                   QuantizationModel(8, 2, 0.3)])
def test_quantized_values_lie_within_the_unit_circle(model):
    # the quantizer is one of the makers of schedule values, which schedules
    # do not check one by one
    values = np.array([1.5, 1.0 + 1e-9, 2j, -0.3 + 1.2j, 0.5])
    assert np.all(np.abs(quantize_values(values, model)) <= 1.0 + 1e-15)


def test_phase_offset_shifts_the_grid():
    model = QuantizationModel(phase_levels=2, phase_offset=np.pi / 2)
    assert snap(1.0, 0.4 * np.pi, model)[1] == pytest.approx(np.pi / 2)


@given(st.floats(0.0, 1.0), st.floats(0.0, TWO_PI, exclude_max=True),
       st.integers(1, 16) | st.none(), st.integers(1, 9) | st.none(),
       st.floats(0.0, TWO_PI, exclude_max=True))
def test_quantize_is_idempotent(amp, phase, phase_levels, amp_levels, offset):
    model = QuantizationModel(phase_levels, amp_levels, offset)
    once = quantize_values(np.array([amp * np.exp(1j * phase)]), model)
    twice = quantize_values(once, model)
    # a component left continuous passes through |z| and arg z again,
    # which may move it by a few ulps
    assert np.allclose(twice, once, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# ideal ramp
# ---------------------------------------------------------------------------

def test_frequency_shift_moves_tone_exactly():
    env = tone_envelope(256, 256.0, 0.0, freq_offset=8.0)
    out = frequency_shift(env, -3.0)
    spectrum = periodogram(out)
    assert line_power(spectrum, 5.0) == pytest.approx(1.0, rel=1e-12)
