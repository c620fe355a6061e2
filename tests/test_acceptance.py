"""Acceptance gate: one test per shipped criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints a PASS line with the measured numbers.
"""

import filecmp
import time

import numpy as np
import pytest

from metalink import scenario as scen
from metalink.core import (
    CoefficientSchedule,
    SurfaceGeometry,
    cell_positions,
    resample_hold,
    tone_envelope,
)
from metalink.metasurface import (
    QuantizationModel,
    StaircaseRampSpec,
    compile_staircase,
    frequency_shift,
    quantize_values,
)
from metalink.propagation import (
    ChannelModel,
    ChannelSet,
    PointSet,
    build_channels,
    surface_pass,
)
from metalink.spectral import line_power, periodogram, staircase_harmonics
from metalink.txrx import demap_symbols, get_scheme, map_bits
from oracles import dft_direct, free_space_gain

UNIT_CELL = ChannelSet(np.ones(1), np.ones((1, 1)))  # 1x1 surface, unit gains


def simulate_bundled(name, **overrides):
    data = scen.load_scenario(name)
    if overrides:
        data = scen.apply_overrides(data, overrides)
    violations = scen.validate(data)
    assert not violations, violations
    return scen.simulate(scen.Scenario.from_dict(data))


def test_criterion_1_space_down_conversion_magnitude():
    start = time.perf_counter()
    result = simulate_bundled("sdc_5mhz")
    spectrum = result.reports["link"].spectra["output"]

    strongest = spectrum.frequencies[int(np.argmax(spectrum.power))]
    assert strongest == -5e6  # bin-exact: 5 MHz below the input tone

    fraction = line_power(spectrum, -5e6) / spectrum.total_power
    expected = (np.sin(np.pi / 20) / (np.pi / 20)) ** 2
    assert fraction == pytest.approx(expected, rel=1e-6)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: line at {strongest / 1e6:g} MHz, fraction "
          f"{fraction:.9f} vs sinc^2(pi/20) = {expected:.9f} ({elapsed:.2f} s)")


def test_criterion_2_staircase_harmonic_structure():
    start = time.perf_counter()

    # lattice structure, measured over exact integer periods
    for L in (2, 4, 8, 20):
        oversample, periods = 64, 4
        spec = StaircaseRampSpec(period=L * 1e-8, steps_per_period=L)
        sched = compile_staircase(spec, 1e8, duration=periods * L * 1e-8)
        held = resample_hold(sched, oversample * 1e8)
        env = tone_envelope(held.num_steps, held.control_rate, 0.0)
        spectrum = periodogram(surface_pass(env, held, [0], UNIT_CELL)[0])
        total = spectrum.total_power
        # harmonic index q of the down-ramp basis: q = -freq * period
        q = np.rint(-spectrum.frequencies * spec.period).astype(int)
        off_lattice = ~(np.isclose(spectrum.frequencies * spec.period,
                                   np.rint(spectrum.frequencies * spec.period))
                        & ((q - 1) % L == 0))
        assert np.all(spectrum.power[off_lattice] < 1e-12 * total), f"L={L}"

    # square-wave fundamental: closed form and a finely sampled measurement
    fundamental = staircase_harmonics(2, [1])[0]
    assert abs(fundamental - 2 / np.pi) < 1e-9
    spec2 = StaircaseRampSpec(period=2e-8, steps_per_period=2)
    sched2 = compile_staircase(spec2, 1e8, duration=2e-8)
    held2 = resample_hold(sched2, 65536 * 1e8)
    env2 = tone_envelope(held2.num_steps, held2.control_rate, 0.0)
    spectrum2 = periodogram(surface_pass(env2, held2, [0], UNIT_CELL)[0])
    measured = np.sqrt(line_power(spectrum2, spec2.frequency_shift))
    assert abs(measured - 2 / np.pi) < 1e-9

    # the production transform agrees with the direct O(N^2) oracle
    probe = surface_pass(
        tone_envelope(1024, 64e8, 0.0),
        resample_hold(compile_staircase(spec2, 1e8, 16e-8), 64e8), [0], UNIT_CELL)[0]
    fast = np.fft.fft(probe.samples)
    direct = dft_direct(probe.samples)
    assert np.allclose(fast, direct, rtol=1e-9, atol=1e-9 * np.abs(direct).max())

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: lattice clean for L in (2, 4, 8, 20); L=2 "
          f"fundamental {measured:.12f} vs 2/pi = {2 / np.pi:.12f} ({elapsed:.2f} s)")


def test_criterion_3_ideal_ramp_limit():
    n, fs = 4096, 4096.0
    env = tone_envelope(n, fs, 0.0, freq_offset=100.0)
    shifted = frequency_shift(env, -400.0)
    spectrum = periodogram(shifted)
    moved = line_power(spectrum, -300.0)
    assert moved == pytest.approx(1.0, rel=1e-9)  # power preserved
    floor = np.max(spectrum.power[spectrum.frequencies != -300.0])
    assert floor < 1e-20
    print(f"\nPASS criterion 3: tone moved bin-exactly, power {moved:.12f}, "
          f"spur floor {floor:.3g}")


def test_criterion_4_mimo_16qam_loopback_and_noise_monotonicity():
    start = time.perf_counter()

    result = simulate_bundled("mimo2x2_16qam")
    report = result.reports["link"]
    assert all(len(s) >= 10_000 for s in report.detected_symbols)
    assert np.all(report.ber == 0.0)
    assert np.all(report.evm_percent < 0.1)

    # EVM median over 20 seeds is non-decreasing in injected noise variance
    levels = [1e-6, 1e-4, 1e-2]
    medians = []
    for psd in levels:
        evms = []
        for seed in range(20):
            noisy = simulate_bundled(
                "mimo2x2_16qam",
                **{"frame.payload_symbols": "400",
                   "channel.noise_psd": str(psd),
                   "rng_seed": str(1000 + seed),
                   "spectrum_bins": "4096"})
            evms.append(float(np.max(noisy.reports["link"].evm_percent)))
        medians.append(float(np.median(evms)))
    assert all(a <= b for a, b in zip(medians, medians[1:]))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 4: BER = 0, EVM {report.evm_percent.max():.3g}% on "
          f"10^4 symbols/stream; EVM medians {medians} over noise "
          f"{levels} ({elapsed:.2f} s)")


def test_criterion_5_superposition_matches_brute_force_double_sum():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    geometry = SurfaceGeometry(16, 16, 0.0353)
    num_cells = geometry.num_cells
    points = PointSet(np.array([[0.0, 0.0, 0.45],
                                [0.31, -0.12, 0.62],
                                [-0.25, 0.4, 0.8],
                                [0.1, 0.55, 1.1]]),
                      ("feed", "rx", "rx", "rx"))
    model = ChannelModel("free_space", wavelength=0.0706)
    channels = build_channels(geometry, points, model)

    n_samples = 4096
    schedule = CoefficientSchedule(
        rng.uniform(0.2, 1.0, (num_cells, 64))
        * np.exp(1j * rng.uniform(0, 2 * np.pi, (num_cells, 64))), 1e8 / 64)
    held = resample_hold(schedule, 1e8)
    carrier = tone_envelope(n_samples, 1e8, 4.25e9)

    # production pipeline, one schedule row per cell
    outputs = surface_pass(carrier, held, np.arange(num_cells), channels)

    # independent brute-force double sum over rows and columns
    cells = cell_positions(geometry)
    feed_pos = points.positions[0]
    for p in range(3):
        obs_pos = points.positions[1 + p]
        brute = np.zeros(n_samples, dtype=complex)
        for n in range(geometry.rows):
            for m in range(geometry.cols):
                c = n * geometry.cols + m
                g_feed = free_space_gain(feed_pos, cells[c], model.wavelength)
                g_obs = free_space_gain(obs_pos, cells[c], model.wavelength)
                brute += g_obs * (held.values[c] * (g_feed * carrier.samples))
        scale = np.max(np.abs(brute))
        err = np.max(np.abs(outputs[p].samples - brute))
        assert err <= 1e-12 * scale, f"point {p}: {err / scale:.3g} relative"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 5: 16x16 surface, 3 points, max deviation within "
          f"1e-12 of peak ({elapsed:.2f} s)")


def test_criterion_6_single_cell_identity_chain_reduces_to_reflection():
    rng = np.random.default_rng(31)
    carrier = tone_envelope(512, 1e8, 4.25e9, freq_offset=3e6)
    for _ in range(10):
        coeff = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        schedule = CoefficientSchedule(np.full((1, 512), coeff), 1e8)
        received = surface_pass(carrier, schedule, [0], UNIT_CELL)[0]
        assert np.array_equal(received.samples, carrier.samples * coeff)
    print("\nPASS criterion 6: single-cell identity chain is exactly "
          "A*exp(j*phi) * input for 10 random coefficients")


def test_criterion_7_determinism_and_round_trips(tmp_path):
    # identical seeds produce byte-identical .npy artifacts
    overrides = {"frame.payload_symbols": "400", "spectrum_bins": "4096"}
    scen.run_scenario("mimo2x2_16qam", tmp_path / "a", overrides=overrides)
    scen.run_scenario("mimo2x2_16qam", tmp_path / "b", overrides=overrides)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name

    # demap(map(bits)) is the identity for every scheme, exhaustively
    for name in ("BPSK", "QPSK", "8PSK", "16QAM"):
        scheme = get_scheme(name)
        words = np.arange(2 ** scheme.bits_per_symbol)
        shifts = np.arange(scheme.bits_per_symbol - 1, -1, -1)
        bits = ((words[:, None] >> shifts) & 1).reshape(-1)
        recovered, _ = demap_symbols(map_bits(bits, scheme), scheme)
        assert np.array_equal(recovered, bits), name

    # quantization is idempotent over 10^3 random coefficients
    rng = np.random.default_rng(77)
    models = [QuantizationModel(phase_levels=rng.integers(1, 17),
                                amplitude_levels=rng.integers(1, 9),
                                phase_offset=rng.uniform(0, 2 * np.pi))
              for _ in range(10)]
    for i in range(1000):
        coeff = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        model = models[i % len(models)]
        once = quantize_values(np.array([coeff]), model)
        twice = quantize_values(once, model)
        assert np.array_equal(twice, once)

    print("\nPASS criterion 7: byte-identical reruns, exhaustive map/demap "
          "round trips, quantize idempotent over 10^3 draws")
