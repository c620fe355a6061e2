import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from metalink import artifacts, cli, core, propagation, schema, spectral, txrx
from metalink import scenario as scen
from metalink.core import ConfigurationError
from metalink.spectral import Spectrum
from metalink.txrx import LinkReport
from oracles import _received as received
from oracles import simulate as oracles_simulate
from oracles import (assert_close_harmonics, channel_estimate_pairs, dft_direct,
                     integrate, scenario_frame, surface_pass, write_constellation,
                     write_spectrum)


@pytest.fixture()
def tiny_link():
    """Degenerate 1-cell identity-channel link scenario."""
    return {
        "name": "tiny",
        "mode": "transmit_link",
        "carrier_freq_hz": 4.25e9,
        "control_rate_hz": 1e8,
        "oversample": 1,
        "rng_seed": 7,
        "geometry": {"rows": 1, "cols": 1, "spacing_m": 0.035,
                     "origin_m": [0.0, 0.0, 0.0]},
        "points": [{"position_m": [0.0, 0.0, 0.5], "role": "feed"},
                   {"position_m": [0.1, 0.0, 0.5], "role": "rx"}],
        "channel": {"kind": "identity", "noise_psd": 0.0},
        "partition": "full",
        "modulation": "BPSK",
        "frame": {"symbol_rate_baud": 2.5e6, "samples_per_symbol": 40,
                  "payload_symbols": 32},
    }


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["mimo2x2_16qam", "sdc_5mhz", "integrated_switch"])
def test_bundled_scenarios_validate(name):
    assert scen.validate(scen.load_scenario(name)) == []


def test_zero_spacing_violation_names_the_field(tiny_link):
    tiny_link["geometry"]["spacing_m"] = 0.0
    violations = scen.validate(tiny_link)
    assert any("geometry.spacing_m" in v and "> 0" in v for v in violations)


def test_fractional_staircase_ratio_violation_cites_the_rule():
    data = scen.load_scenario("sdc_5mhz")
    data["staircase"]["period_s"] = 2.05e-7  # 20.5 control samples per period
    violations = scen.validate(data)
    assert any("integer samples per period" in v for v in violations)


def test_validation_collects_multiple_violations(tiny_link):
    tiny_link["geometry"]["spacing_m"] = -1.0
    tiny_link["modulation"] = "64QAM"
    tiny_link["channel"]["noise_psd"] = -0.5
    violations = scen.validate(tiny_link)
    assert len(violations) >= 3


def test_point_on_a_cell_is_rejected(tiny_link):
    tiny_link["points"][1]["position_m"] = [0.0, 0.0, 0.0]
    violations = scen.validate(tiny_link)
    assert any("coincides" in v for v in violations)


def test_frame_rate_consistency_rule(tiny_link):
    tiny_link["frame"]["samples_per_symbol"] = 39
    violations = scen.validate(tiny_link)
    assert any("control_rate_hz" in v for v in violations)


def test_explicit_matrix_shape_is_checked(tiny_link):
    tiny_link["channel"] = {"kind": "explicit_matrix", "noise_psd": 0.0,
                            "matrix": [[[1.0, 0.0]], [[1.0, 0.0]]]}
    violations = scen.validate(tiny_link)
    assert any("channel.matrix" in v for v in violations)


def test_sdc_mode_rejects_spectrum_bins():
    # a capped DFT would not span whole ramp periods, moving the harmonic
    # lines off the bin grid; SDC runs used to ignore the cap silently
    data = scen.apply_overrides(scen.load_scenario("sdc_5mhz"),
                                {"spectrum_bins": "1024"})
    violations = scen.validate(data)
    assert any(v.startswith("spectrum_bins:") and "whole ramp periods" in v
               for v in violations)


@pytest.mark.parametrize("name, field, value", [
    ("sdc_5mhz", "modulation", "64QAM"),
    ("sdc_5mhz", "partition", "bogus"),
    ("sdc_5mhz", "frame", "7"),
    ("sdc_5mhz", "quantization", '{"phase_levels": 4}'),
    ("mimo2x2_16qam", "staircase", "7"),
    ("mimo2x2_16qam", "sdc_periods", "-3"),
    ("integrated_switch", "sdc_periods", "-3"),
])
def test_fields_of_another_mode_are_reported(name, field, value):
    # these fields used to validate and then be ignored by the run
    data = scen.apply_overrides(scen.load_scenario(name), {field: value})
    mode = data["mode"]
    assert scen.validate(data) == [
        f"{field}: not used in {mode} mode; remove it or set it to null"]


def test_null_fields_of_another_mode_are_accepted():
    data = scen.apply_overrides(scen.load_scenario("sdc_5mhz"),
                                {"modulation": "null", "quantization": "null"})
    assert scen.validate(data) == []


# ---------------------------------------------------------------------------
# simulation behaviour
# ---------------------------------------------------------------------------

def test_degenerate_scenario_is_transparent(tiny_link):
    sc = scen.Scenario.from_dict(tiny_link)
    result = scen.simulate(sc)
    report = result.reports["link"]
    assert report.evm_percent[0] == 0.0
    assert report.ber[0] == 0.0
    assert report.channel_estimate[0, 0] == pytest.approx(1.0)


def test_overrides_reach_the_pipeline(tiny_link):
    data = scen.apply_overrides(tiny_link, {"frame.payload_symbols": "8",
                                            "channel.noise_psd": "0.01"})
    assert data["frame"]["payload_symbols"] == 8
    sc = scen.Scenario.from_dict(data)
    result = scen.simulate(sc)
    assert len(result.reports["link"].detected_symbols[0]) == 8
    assert result.reports["link"].evm_percent[0] > 0.0


def _json_or_kept(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


@pytest.mark.parametrize("text", [
    " 1", "\t[1, 2]", "NaN", "-Infinity", "Infinity", "true", "false", "null",
    "{}", ' {"a": 1}', "1e3", "-2.5", '"quoted"', "\n\r 7", "", " ", "\x0c1",
    "full", "free_space", "QPSK", "16QAM", "-x", "tru", "Inf", "- 1"])
def test_string_overrides_read_as_json_or_stay_strings(text):
    got = scen.apply_overrides({}, {"field": text})["field"]
    assert repr(got) == repr(_json_or_kept(text))  # repr tells 1 from 1.0, nan too


def test_run_scenario_writes_expected_artifacts(tiny_link, tmp_path):
    result = scen.run_scenario(tiny_link, tmp_path / "out")
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["constellation_0.npy", "spectrum_rx0.npy", "summary.json"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["scenario"] == "tiny"
    assert summary["reports"]["link"]["ber"] == [0.0]
    assert summary["artifacts"] == names
    constellation = np.load(tmp_path / "out" / "constellation_0.npy")
    assert constellation.dtype.names == ("symbol_index", "i", "q", "ref_i", "ref_q")
    assert constellation.shape == (32,)
    spectrum = np.load(tmp_path / "out" / "spectrum_rx0.npy")
    assert spectrum.dtype.names == ("freq_hz", "power_linear", "power_db")
    assert spectrum.shape == (len(result.reports["link"].spectra["rx0"].power),)


def test_rerun_replaces_artifacts_instead_of_rewriting_them(tiny_link, tmp_path):
    out, kept = tmp_path / "out", tmp_path / "kept"
    first = {name: (out / name).read_bytes()
             for name in scen.run_scenario(tiny_link, out).summary["artifacts"]}
    kept.mkdir()
    for name in first:  # a second link to each file shows whether it is rewritten
        os.link(out / name, kept / name)
    scen.run_scenario(tiny_link, out, overrides={"frame.payload_symbols": "8"})
    for name, data in first.items():
        assert (out / name).stat().st_nlink == 1
        assert (kept / name).read_bytes() == data
    assert np.load(out / "constellation_0.npy").shape == (8,)


def test_summary_channel_estimate_matches_loop_oracle():
    # random parts plus the values a float conversion could mangle: -0.0
    # and the smallest subnormal
    rng = np.random.default_rng(8)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h[0, 0], h[3, 5], h[7, 7] = complex(-0.0, 5e-324), complex(5e-324, -0.0), -0.0
    sc = SimpleNamespace(name="h", mode="transmit_link", rng_seed=0)
    summary = scen._summarize(sc, {"link": LinkReport(channel_estimate=h)})
    written = summary["reports"]["link"]["channel_estimate"]
    # json.dumps writes each float's repr, so equal text means equal bits
    assert json.dumps(written) == json.dumps(channel_estimate_pairs(h))


# the smallest subnormal puts subnormal bin centers in freq_hz; the largest
# finite float puts -inf and +inf there, from the second bin either side of 0
EDGE_RESOLUTIONS = [5e-324, np.finfo(float).max]


def _edge_spectrum(n, rng, resolution):
    """n random bins with -0.0, zero (-inf dB), subnormal and huge powers."""
    power = rng.exponential(size=n)
    power[0], power[-1] = 0.0, 5e-324
    if n > 3:
        power[1], power[2] = 1.7e308, -0.0
    return Spectrum(power, resolution)


def _write(report, out_dir):
    return artifacts.write_artifacts(scen.ScenarioResult({"link": report}, {}), out_dir)


def _exported_bytes(report, out_dir):
    _write(report, out_dir)
    return {p.name: p.read_bytes() for p in artifacts.export_csv(out_dir)}


def _edge_constellation():
    rng = np.random.default_rng(10_001)
    detected, reference = rng.normal(size=(2, 10_001, 2)) @ np.array([1.0, 1j])
    detected[0], reference[-1] = complex(-0.0, 5e-324), complex(1.7e308, -0.0)
    return detected, reference


def _constellation_report(detected, reference, **fields) -> LinkReport:
    """A one-stream report of detected symbols whose reference symbols are
    reference: its points, each sent as its own word."""
    return LinkReport(detected_symbols=detected[np.newaxis],
                      sent_words=np.arange(len(reference))[np.newaxis],
                      points=reference, **fields)


def _same_bits(a, b) -> bool:
    # compares -0.0, nan payloads and subnormals bit for bit
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


BLOCK_SIZES = [2, artifacts.CSV_BLOCK_ROWS - 1, artifacts.CSV_BLOCK_ROWS,
               artifacts.CSV_BLOCK_ROWS + 1, 2 * artifacts.CSV_BLOCK_ROWS + 3]


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_spectrum_npy_round_trips_bit_exactly(n, tmp_path):
    for resolution in EDGE_RESOLUTIONS:
        spectrum = _edge_spectrum(n, np.random.default_rng(n), resolution)
        with np.errstate(over="ignore"):  # the huge resolution's grid overflows
            _write(LinkReport(spectra={"edge": spectrum}), tmp_path)
            freqs = spectrum.frequencies
        table = np.load(tmp_path / "spectrum_edge.npy", allow_pickle=False)
        with np.errstate(divide="ignore"):
            power_db = 10.0 * np.log10(spectrum.power)
        assert table.dtype == artifacts.SPECTRUM_DTYPE
        assert _same_bits(table["freq_hz"], freqs)
        assert _same_bits(table["power_linear"], spectrum.power)
        assert _same_bits(table["power_db"], power_db)


def test_edge_resolutions_reach_subnormal_and_infinite_frequencies():
    tiny, huge = (Spectrum(np.zeros(5), r) for r in EDGE_RESOLUTIONS)
    assert np.array_equal(tiny.frequencies, [-2 * 5e-324, -5e-324, 0.0, 5e-324, 1e-323])
    with np.errstate(over="ignore"):
        assert np.array_equal(huge.frequencies,
                              [-np.inf, -EDGE_RESOLUTIONS[1], 0.0, EDGE_RESOLUTIONS[1],
                               np.inf])


def test_constellation_npy_round_trips_bit_exactly(tmp_path):
    detected, reference = _edge_constellation()
    _write(_constellation_report(detected, reference), tmp_path)
    table = np.load(tmp_path / "constellation_0.npy", allow_pickle=False)
    assert table.dtype == artifacts.CONSTELLATION_DTYPE
    assert np.array_equal(table["symbol_index"], np.arange(len(detected)))
    for name, column in (("i", detected.real), ("q", detected.imag),
                         ("ref_i", reference.real), ("ref_q", reference.imag)):
        assert _same_bits(table[name], column), name


def _dense_table(values, resolution, stride):
    """The SPECTRUM_DTYPE table of the n = len(values) * stride bins of a
    lattice spectrum, formed whole: bin k = n // 2 + 1 - n + i of row i
    holds the next of values when stride divides k, and power 0 otherwise."""
    n = len(values) * stride
    k = np.arange(n // 2 + 1 - n, n // 2 + 1)
    power = np.zeros(n)
    power[k % stride == 0] = values
    table = np.empty(n, artifacts.SPECTRUM_DTYPE)
    table["freq_hz"] = k * resolution
    table["power_linear"] = power
    with np.errstate(divide="ignore"):
        np.log10(power, out=table["power_db"])
    table["power_db"] *= 10.0
    return table


@pytest.mark.parametrize("n", [core.BLOCK - 1, core.BLOCK, core.BLOCK + 1,
                               2 * core.BLOCK + 3])
def test_tables_written_in_blocks_are_the_files_np_save_writes(n, tmp_path):
    # each table is written a block of rows at a time; its file is the one
    # np.save writes of the whole table, formed at once as below. Lattice
    # spectra at strides 2 and 37 take n rounded to whole strides, and the
    # tone is one line at stride n
    rng = np.random.default_rng(n)
    detected, reference = rng.normal(size=(2, n, 2)) @ np.array([1.0, 1j])
    spectra = {"edge": _edge_spectrum(n, rng, 1e3)}
    for stride in (2, 37):
        spectra[f"lattice{stride}"] = Spectrum(
            _edge_spectrum(round(n / stride), rng, 1e3).values, 1e3, stride)
    spectra["tone"] = Spectrum(np.ones(1), 1e3, n)
    _write(_constellation_report(detected, reference, spectra=spectra), tmp_path / "blocks")
    constellation = np.empty(n, artifacts.CONSTELLATION_DTYPE)
    for name, column in zip(constellation.dtype.names, (
            np.arange(n), detected.real, detected.imag, reference.real, reference.imag)):
        constellation[name] = column
    tables = {"constellation_0.npy": constellation}
    for tag, spectrum in spectra.items():
        tables[f"spectrum_{tag}.npy"] = _dense_table(spectrum.values, 1e3, spectrum.stride)
    for file, table in tables.items():
        np.save(tmp_path / file, table, allow_pickle=False)
        assert (tmp_path / "blocks" / file).read_bytes() == (tmp_path / file).read_bytes()


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_spectrum_csv_matches_csv_writer_oracle(n, tmp_path):
    for resolution in EDGE_RESOLUTIONS:
        spectrum = _edge_spectrum(n, np.random.default_rng(n), resolution)
        with np.errstate(over="ignore"):  # the huge resolution's grid overflows
            written = _exported_bytes(LinkReport(spectra={"edge": spectrum}),
                                      tmp_path / "new")
            write_spectrum(tmp_path / "ref.csv", spectrum)
        assert written == {"spectrum_edge.csv": (tmp_path / "ref.csv").read_bytes()}


def test_constellation_csv_matches_csv_writer_oracle(tmp_path):
    detected, reference = _edge_constellation()
    written = _exported_bytes(_constellation_report(detected, reference),
                              tmp_path / "new")
    write_constellation(tmp_path / "ref.csv", detected, reference)
    assert written == {"constellation_0.csv": (tmp_path / "ref.csv").read_bytes()}


def test_integrated_scenario_round_trip(tmp_path):
    result = scen.run_scenario("integrated_switch", tmp_path,
                               overrides={"frame.payload_symbols": "64"})
    assert result.reports["transmit"].ber[0] == 0.0
    assert result.reports["receive"].ber[0] == 0.0
    names = {p.name for p in tmp_path.iterdir()}
    assert {"constellation_transmit_0.npy", "constellation_receive_0.npy",
            "spectrum_sdc_rx0.npy"} <= names
    table = np.load(tmp_path / "constellation_receive_0.npy")
    assert table.dtype.names == ("symbol_index", "i", "q", "ref_i", "ref_q")
    assert table.shape == (64,)
    # the ramp moves the received frame 5 MHz below the incoming carrier: its
    # strongest bin, and most of its power, lie within one symbol rate of
    # -5 MHz, whatever the payload (the exact peak bin depends on it)
    spectrum = result.reports["receive"].spectra["sdc_rx0"]
    offset = spectrum.frequencies + 5e6
    assert abs(offset[np.argmax(spectrum.power)]) <= 2.5e6
    near = np.abs(offset) <= 2.5e6
    assert spectrum.power[near].sum() > 0.8 * spectrum.power.sum()


def test_integrated_mode_caps_artifact_spectra(tmp_path):
    scen.run_scenario("integrated_switch", tmp_path,
                      overrides={"frame.payload_symbols": "64",
                                 "spectrum_bins": "1024"})
    for name in ("spectrum_tx_rx0.npy", "spectrum_sdc_rx0.npy"):
        table = np.load(tmp_path / name)
        assert table.dtype.names == ("freq_hz", "power_linear", "power_db")
        assert table.shape == (1024,)


def test_flipping_ramp_direction_mirrors_the_spectrum():
    # the up ramp is the conjugate of the down ramp, so P_up(f) = P_down(-f);
    # bins run from -fs/2 + df to +fs/2, and +fs/2 alone has no mirror bin
    results = {}
    for direction in ("down", "up"):
        data = scen.apply_overrides(scen.load_scenario("sdc_5mhz"),
                                    {"staircase.direction": direction})
        results[direction] = scen.simulate(scen.Scenario.from_dict(data))
    down, up = (results[d].reports["link"].spectra["output"] for d in ("down", "up"))
    assert np.array_equal(up.frequencies[:-1], -down.frequencies[-2::-1])
    mismatch = np.max(np.abs(up.power[:-1] - down.power[-2::-1]))
    assert mismatch <= 1e-12 * np.max(down.power)
    line = results["down"].summary["strongest_line_hz"]
    assert line != 0.0 and results["up"].summary["strongest_line_hz"] == -line


@pytest.mark.parametrize("oversample", [3, 4, 16])
@pytest.mark.parametrize("direction", ["down", "up"])
def test_a_two_step_ramp_reports_the_expected_of_its_tied_lines(direction, oversample):
    # L = 2 ramps the real sequence +1, -1, whose lines at +-shift carry
    # equal power up to rounding (at oversample 4 the +50 MHz line read a
    # hair stronger, at 3 and 16 the -50 MHz one); the tie goes to the
    # expected line, and the reference runner restates that rule; it takes
    # the spectrum from the whole capture, so its harmonic fractions agree
    # to rounding
    data = scen.apply_overrides(scen.load_scenario("sdc_5mhz"), {
        "staircase.steps_per_period": 2, "staircase.period_s": 2e-8,
        "oversample": oversample, "staircase.direction": direction})
    result = scen.simulate(scen.Scenario.from_dict(data))
    summary = result.summary
    assert summary["expected_line_hz"] == (5e7 if direction == "up" else -5e7)
    assert summary["strongest_line_hz"] == summary["expected_line_hz"]
    want = oracles_simulate(data).summary
    assert_close_harmonics(summary["harmonics"], want["harmonics"])
    assert ({k: v for k, v in want.items() if k != "harmonics"}
            == {k: v for k, v in summary.items() if k != "harmonics"})
    spectrum = result.reports["link"].spectra["output"]
    assert (spectral.line_power(spectrum, 5e7)
            == pytest.approx(spectral.line_power(spectrum, -5e7), rel=1e-12))


def test_wide_surface_simulates_in_bounded_memory():
    # 1024 cells x 51 200 samples: the surface pass holds per-stream rows
    # only, never one envelope per cell (840 MB for each such copy)
    data = scen.apply_overrides(scen.load_scenario("sdc_5mhz"),
                                {"geometry.rows": "32", "geometry.cols": "32"})
    sc = scen.Scenario.from_dict(data)
    tracemalloc.start()
    try:
        result = scen.simulate(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.summary["strongest_line_hz"] == -5e6
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def traced_simulate(overrides: dict, name: str = "mimo2x2_16qam") -> tuple:
    """simulate(name) with overrides: (result, tracemalloc peak) of a warm
    run, after one untraced run has built the cached tables."""
    data = scen.apply_overrides(scen.load_scenario(name), overrides)
    sc = scen.Scenario.from_dict(data)
    scen.simulate(sc)
    tracemalloc.start()
    try:
        result = scen.simulate(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_long_noiseless_capture_holds_no_array_of_its_length():
    # 1000 ramp periods of 5 120 samples: the input spectrum is one value
    # and the output one value a period, so the result holds under 1 MiB
    # (dense spectra held 8 bytes a bin each, 78 MiB). The peak is the
    # dense power that total_power sums, 8 bytes a bin; no envelope and no
    # complex bins of the whole capture are formed (those took it to 234 MiB)
    bins = 1000 * 5120
    sc = scen.Scenario.from_dict(scen.apply_overrides(scen.load_scenario("sdc_5mhz"),
                                                      {"sdc_periods": 1000}))
    tracemalloc.start()
    try:
        result = scen.simulate(sc)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.summary["strongest_line_hz"] == -5e6
    assert held < 2 ** 20, f"held {held / 2 ** 20:.2f} MiB"
    assert peak <= 8 * bins + 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_a_lattice_is_written_with_the_log10_of_its_lattice_bins_only(monkeypatch,
                                                                       tmp_path):
    # sdc_5mhz at 37 periods of 5 120 samples: the output holds one value a
    # period and the input tone one value; every other row is written as 0
    # and -inf dB without a log10
    data = scen.apply_overrides(scen.load_scenario("sdc_5mhz"), {"sdc_periods": 37})
    result = scen.simulate(scen.Scenario.from_dict(data))
    sizes, log10 = [], np.log10

    def counted_log10(a, *args, **kwargs):
        sizes.append(np.size(a))
        return log10(a, *args, **kwargs)

    monkeypatch.setattr(np, "log10", counted_log10)
    artifacts.write_artifacts(result, tmp_path)
    assert sum(sizes) == 5120 + 1
    table = np.load(tmp_path / "spectrum_input.npy", allow_pickle=False)
    assert np.flatnonzero(np.isfinite(table["power_db"])).tolist() == [37 * 5120 // 2 - 1]


def test_a_noisy_capture_is_transformed_in_its_noise_buffer():
    # 200 ramp periods of 5 120 samples: the capture's noise is transformed
    # in place, so the peak holds its complex bins and the output power, 24
    # bytes a sample; the noise and its DFT beside it took 32
    samples = 200 * 5120
    result, peak = traced_simulate({"sdc_periods": 200, "channel.noise_psd": 0.01},
                                   "sdc_5mhz")
    assert result.summary["strongest_line_hz"] == -5e6
    assert peak <= 25 * samples, f"{peak / samples:.1f} bytes a sample"


@pytest.mark.parametrize("noise_psd", [0.0, 0.01])
def test_an_sdc_run_transforms_one_ramp_period(noise_psd, monkeypatch):
    # sdc_5mhz ramps 20 steps of 256 samples; a noisy run also transforms
    # the noise of its 37 periods, once
    sizes, fft = [], np.fft.fft

    def counted_fft(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted_fft)
    data = scen.apply_overrides(scen.load_scenario("sdc_5mhz"), {
        "sdc_periods": 37, "channel.noise_psd": noise_psd})
    scen.simulate(scen.Scenario.from_dict(data))
    assert sizes == ([(37 * 5120,)] if noise_psd else []) + [(5120,)]


@pytest.mark.parametrize("noise_psd", [0.0, 1e-3])
def test_mimo_frame_simulates_in_bounded_memory(noise_psd):
    # 2 x 10^4 symbols over 400 320 samples: the link frame takes its means
    # from the held coefficients, so no received envelope is held (each
    # would be 6.4 MB); the payload words, the schedule, the per-symbol means
    # and the detected symbols remain. The 65 540-sample spectrum head
    # (1 MiB) is transformed in place and freed before detection, which
    # took the warm peak from 3.11 to 1.83 MiB. Noise is drawn a block of
    # core.BLOCK values at a time: at 65 536 (1 MiB) the noisy peak read
    # 2.43 MiB, at 16 384 it reads 1.83 MiB. A noiseless head is written at
    # every 8th sample (8 192 samples, 128 KiB) and its spectrum formed with
    # the hold's kernel, which took the noiseless peak from 1.83 to 1.34 MiB,
    # now set inside detect beside the 512 KiB spectrum; it is bounded at
    # that plus 0.11 MiB
    result, peak = traced_simulate({"channel.noise_psd": noise_psd})
    assert np.all(result.reports["link"].ber == 0.0)
    bound = 2.0 if noise_psd else 1.45
    assert peak <= bound * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_a_million_symbol_frame_peaks_under_76_mib():
    # 2 x 10^6 16QAM symbols: the payload is held as its bit words, one byte
    # a symbol (1.9 MiB), drawn as such in one draw, and detect scores
    # each stream through one reused float buffer, looking the reference
    # symbols up a block at a time; the means and the equalized symbols
    # (30.5 MiB each) remain. Holding the reference symbols whole as well
    # took the peak to 102.5 MiB; it reads 72.1 MiB
    result, peak = traced_simulate({"frame.payload_symbols": 10 ** 6})
    assert np.all(result.reports["link"].ber == 0.0)
    assert peak <= 76 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_writing_a_million_symbol_frame_peaks_under_37_mib(tmp_path):
    # 2 x 10^6 symbols: the result holds the detected symbols (30.5 MiB) and
    # the sent words (1.9 MiB); each constellation table (38 MiB), its index
    # and the spectrum's frequency grid were formed whole and took the
    # writer to 107.3 MiB traced. One block of rows at a time, with the
    # reference symbols held whole, read 64.5 MiB; looking them up a block
    # at a time reads 33.8 MiB
    data = scen.apply_overrides(scen.load_scenario("mimo2x2_16qam"),
                                {"frame.payload_symbols": 10 ** 6})
    sc = scen.Scenario.from_dict(data)
    tracemalloc.start()
    try:
        result = scen.simulate(sc)
        tracemalloc.reset_peak()
        artifacts.write_artifacts(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(np.load(tmp_path / "constellation_0.npy")) == 10 ** 6
    assert peak <= 37 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_writing_a_spectrum_table_holds_one_small_block(tmp_path):
    # 65 536 rows of 24 bytes: a block of 65 536 rows (1.5 MiB) and its
    # index and frequency temporaries (0.5 MiB each) took the writer to
    # 2.57 MiB beyond the held result; core.BLOCK rows at a time, with each
    # bin centre formed in its field, read 0.57 MiB
    spectrum = Spectrum(np.random.default_rng(3).exponential(size=65536), 1e3)
    result = scen.ScenarioResult({"link": LinkReport(spectra={"rx0": spectrum})}, {})
    artifacts.write_artifacts(result, tmp_path)  # a warm rewrite is traced
    tracemalloc.start()
    try:
        artifacts.write_artifacts(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_export_maps_each_table_rather_than_loading_it(tmp_path):
    # 2 x 10^5 constellation rows (7.6 MiB): loading the table whole took
    # export_csv past its size; mapped, it is read a block of rows at a time
    table = np.zeros(200_000, artifacts.CONSTELLATION_DTYPE)
    table["symbol_index"] = np.arange(len(table))
    table["i"] = np.random.default_rng(4).normal(size=len(table))
    np.save(tmp_path / "constellation_0.npy", table)
    tracemalloc.start()
    try:
        path, = artifacts.export_csv(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text().count("\n") == 1 + len(table)
    assert peak <= table.nbytes / 3, f"peak {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("modulation", txrx.SCHEME_NAMES)
def test_payload_words_are_one_integers_draw(modulation):
    # frame 0's generator is child 0 of SeedSequence(rng_seed).spawn, and
    # the payload is its first draw: one word per symbol, across both streams
    data = scen.apply_overrides(scen.load_scenario("mimo2x2_16qam"),
                                {"modulation": modulation, "frame.payload_symbols": 1001})
    sc = scen.Scenario.from_dict(data)
    words = scen._payload(sc, 2, scen._rng(sc, 0))
    child = np.random.SeedSequence(sc.rng_seed).spawn(1)[0]
    want = np.random.default_rng(child).integers(
        0, 2 ** sc.scheme.bits_per_symbol, size=(2, 1001), dtype=np.uint8)
    assert words.dtype == sc.scheme.word_weights.dtype == np.uint8
    assert np.array_equal(words, want)


def constellation_tables(name: str, out_dir, overrides: dict) -> dict:
    """{file name: constellation table} of one run of a bundled scenario."""
    scen.run_scenario(name, out_dir, overrides)
    return {p.name: np.load(p) for p in sorted(out_dir.glob("constellation_*.npy"))}


@pytest.mark.parametrize("name, noise_psd", [("mimo2x2_16qam", 0.01),
                                             ("integrated_switch", 1e-7)])
def test_noise_leaves_the_sent_symbols_as_they_are(name, noise_psd, tmp_path):
    # each frame draws its payload before its noise, from the same generator
    quiet = constellation_tables(name, tmp_path / "quiet", {})
    noisy = constellation_tables(name, tmp_path / "noisy", {"channel.noise_psd": noise_psd})
    assert quiet.keys() == noisy.keys() and len(quiet) == 2
    for file, table in quiet.items():
        for column in ("ref_i", "ref_q"):
            assert np.array_equal(table[column], noisy[file][column])
        assert not np.array_equal(table["i"], noisy[file]["i"])


def test_the_spectrum_head_leaves_both_payloads_as_they_are():
    # the head's length sets how many per-sample noise values a frame
    # draws, after its payload
    sent = []
    for bins in (None, 1024, 4097):
        data = scen.apply_overrides(scen.load_scenario("integrated_switch"),
                                    {"spectrum_bins": bins, "channel.noise_psd": 1e-7})
        reports = scen.simulate(scen.Scenario.from_dict(data)).reports
        sent.append([reports[key].sent_words for key in ("transmit", "receive")])
    for other in sent[1:]:
        for want, got in zip(sent[0], other):
            assert np.array_equal(want, got)


class CountingSeedSequence(np.random.SeedSequence):
    made = 0

    def __init__(self, *args, **kwargs):
        CountingSeedSequence.made += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("name, noise_psd, made", [
    ("mimo2x2_16qam", 0.0, 1), ("mimo2x2_16qam", 0.01, 1),
    ("sdc_5mhz", 0.0, 0), ("sdc_5mhz", 0.01, 1),
    ("integrated_switch", 0.0, 2), ("integrated_switch", 0.01, 2)])
def test_a_run_builds_one_seed_sequence_per_frame_that_draws(name, noise_psd, made,
                                                            monkeypatch):
    # a noiseless SDC run draws nothing, so it builds none
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(CountingSeedSequence, "made", 0)
    data = scen.apply_overrides(scen.load_scenario(name), {"channel.noise_psd": noise_psd})
    scen.simulate(scen.Scenario.from_dict(data))
    assert CountingSeedSequence.made == made


def test_long_noisy_frame_peaks_within_1_mib_of_the_noiseless_one():
    # 2 x 10^5 symbols: noise is drawn per symbol mean, and per sample only
    # over the spectrum head, so it adds no per-sample buffer (whole noisy
    # envelopes would take over 250 MB)
    long = {"frame.payload_symbols": 100000}
    _, clean = traced_simulate(long)
    result, peak = traced_simulate({**long, "channel.noise_psd": 1e-3})
    assert np.all(result.reports["link"].ber == 0.0)
    assert max(clean, peak) < 48 * 2 ** 20, (
        f"peaks {clean / 2 ** 20:.1f} and {peak / 2 ** 20:.1f} MB")
    assert peak <= clean + 2 ** 20, (
        f"noisy peak {peak / 2 ** 20:.2f} MiB, noiseless {clean / 2 ** 20:.2f} MiB")


def test_noise_over_a_whole_frame_head_is_drawn_into_the_head():
    # without spectrum_bins the head covers the receive phase's whole frame
    # (330 000 samples, 5 MB); its noise is drawn one block of whole
    # symbols at a time and added to the head, which is then transformed in
    # place, so neither the noise nor the DFT is a second copy of it (the
    # out-of-place DFT read 15.2 MiB, a whole-head noise draw 12.7 MiB with
    # the DFT in place, and a derotated noise copy 22.73 MiB). A noiseless
    # run writes only every g-th sample of each head, so the noisy run may
    # hold one whole head (16 bytes a sample of the longer phase) beyond it
    _, clean = traced_simulate({"spectrum_bins": None}, "integrated_switch")
    result, peak = traced_simulate({"spectrum_bins": None, "channel.noise_psd": 1e-7},
                                   "integrated_switch")
    sc = scen.Scenario.from_dict(scen.load_scenario("integrated_switch"))
    samples = max(len(txrx.make_pilots(streams)[0]) + sc.payload_symbols
                  for streams in (1, 2)) * sc.samples_per_symbol * sc.oversample
    assert np.all(result.reports["receive"].ber == 0.0)
    assert peak <= clean + 16 * samples, (
        f"noisy peak {peak / 2 ** 20:.2f} MiB, noiseless {clean / 2 ** 20:.2f} MiB")
    assert peak < 11 * 2 ** 20, f"noisy peak {peak / 2 ** 20:.2f} MiB"


def test_receive_phase_holds_one_ramp_period_of_weights():
    # 20 000 payload symbols (about 3.3 x 10^6 samples per phase): the
    # receive phase forms the weights of one 20-step ramp period and its
    # means from them; whole-frame weights and the whole-frame ramp took
    # 32.8 MiB traced
    result, peak = traced_simulate({"frame.payload_symbols": 20000,
                                    "channel.noise_psd": 1e-7}, "integrated_switch")
    assert np.all(result.reports["receive"].ber == 0.0)
    assert peak <= 12 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_a_receive_frame_frees_its_sent_symbols_before_detection():
    # 10^5 payload symbols: the receive phase's sent symbols (1.5 MiB) are
    # freed with the head before detect forms its reference symbols from
    # the words; held through detection they took the warm peak to 11.2 MiB
    long = {"frame.payload_symbols": 100000, "channel.noise_psd": 1e-7}
    result, peak = traced_simulate(long, "integrated_switch")
    assert np.all(result.reports["receive"].ber == 0.0)
    assert peak <= 10.25 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def _observers(count: int) -> dict:
    return {"points": [{"position_m": [0.0, 0.0, 0.5], "role": "feed"}] + [
        {"position_m": [0.3 - 0.04 * i, 0.1, 0.6], "role": "rx"} for i in range(count)]}


def test_sdc_memory_does_not_grow_with_the_observation_points():
    # SDC reads point 0's envelope only, so only its row is formed; the 16
    # rows of 256 000 samples took 15.0 MiB traced against 3.1 MiB for one
    one, alone = traced_simulate(_observers(1), "sdc_5mhz")
    many, peak = traced_simulate(_observers(16), "sdc_5mhz")
    assert many.summary["harmonics"] == one.summary["harmonics"]
    assert peak <= alone + 2 ** 19, (
        f"16 points {peak / 2 ** 20:.2f} MiB, one {alone / 2 ** 20:.2f} MiB")


def spied_simulate(monkeypatch, name: str, overrides: dict) -> tuple:
    """simulate(name) with overrides, counting the calls of
    propagation.surface_pass, propagation.stream_gains and
    spectral.periodogram: (result, {function name: calls})."""
    calls = {}

    def spy(module, function):
        original = getattr(module, function)
        calls[function] = 0

        def counted(*args, **kwargs):
            calls[function] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, function, counted)

    spy(propagation, "surface_pass")
    spy(propagation, "stream_gains")
    spy(spectral, "periodogram")
    data = scen.apply_overrides(scen.load_scenario(name), overrides)
    return scen.simulate(scen.Scenario.from_dict(data)), calls


@pytest.mark.parametrize("name, frames", [
    ("mimo2x2_16qam", 1), ("sdc_5mhz", 1), ("integrated_switch", 2)])
@pytest.mark.parametrize("noise_psd", [0.0, 1e-3])
def test_a_run_multiplies_coefficient_tables_by_stream_gains(name, frames, noise_psd,
                                                             monkeypatch):
    # noisy or not, each link frame and each ramp forms its weights from one
    # stream_gains call; no envelope is passed whole and no periodogram taken
    result, calls = spied_simulate(monkeypatch, name, {"channel.noise_psd": noise_psd})
    assert calls == {"surface_pass": 0, "stream_gains": frames, "periodogram": 0}
    if name == "mimo2x2_16qam":
        assert np.all(result.reports["link"].ber == 0.0)


def frame_taps(sc) -> list:
    """simulate(sc), keeping per frame the means that txrx.detect receives,
    the head samples that np.fft.fft transforms in place before it, and
    whether that array owns its memory (no slice of a longer head)."""
    taps = []
    detect, fft = txrx.detect, np.fft.fft

    def tap_fft(a, *args, **kwargs):
        # the head, before it becomes its DFT
        taps.append([None, a.copy(), a.base is None])
        return fft(a, *args, **kwargs)

    def tap_detect(means, *args):
        taps[-1][0] = means.copy()
        return detect(means, *args)

    txrx.detect, np.fft.fft = tap_detect, tap_fft
    try:
        scen.simulate(sc)
    finally:
        txrx.detect, np.fft.fft = detect, fft
    return taps


def held_and_written(overrides: dict) -> None:
    """mimo2x2_16qam's link frame through simulate and through the
    whole-envelope pass of oracles.surface_pass, with the same noise
    (oracles.frame_noise, in simulate's draw layout) added to point 0's
    head samples and to the other means.

    The head is written the same way by both, bit for bit; a noiseless one
    only at every g-th sample, g = gcd(sps, spectrum length), the samples
    over which each symbol's value is held. Each mean is the
    held value plus the mean of its samples' noise, where the reference
    averages sps written samples: summing sps terms in any order errs by at
    most (sps - 1) u sum |x_i|, and the division adds u |mean|, so the two
    differ by at most sps EPS M, M the largest sample magnitude (EPS = 2u).
    """
    data = scen.apply_overrides(scen.load_scenario("mimo2x2_16qam"), overrides)
    sc = scen.Scenario.from_dict(data)
    (means, head, owned), = frame_taps(sc)
    assert owned
    frame = scenario_frame(data, 2)
    sps = sc.samples_per_symbol * sc.oversample
    channels = propagation.build_channels(sc.geometry, sc.points, sc.channel)
    rng = scen._rng(sc, 0)
    words = scen._payload(sc, 2, rng)
    carrier = core.tone_envelope(frame.num_symbols * sps, sc.envelope_rate(), 0.0)
    schedule = core.CoefficientSchedule(
        txrx.symbol_coefficients(words, sc.scheme, sc.quantization), frame.symbol_rate)
    rx = surface_pass(carrier, schedule, sc.stream_of_cell, channels)
    rx, noise, want_head = received(sc, rx, frame.num_symbols, rng)
    want = integrate(rx, frame.num_symbols) + (0.0 if noise is None else noise)
    peak = max(np.max(np.abs(env.samples)) for env in rx)
    assert np.max(np.abs(means - want)) <= sps * np.finfo(float).eps * peak
    g = 1 if sc.noise_psd else math.gcd(sps, len(want_head.samples))
    assert np.array_equal(head.view(np.uint64),
                          want_head.samples[::g].copy().view(np.uint64))


@pytest.mark.parametrize("overrides", [
    {}, {"spectrum_bins": None}, {"spectrum_bins": 2}, {"spectrum_bins": 41},
    {"oversample": 3, "control_rate_hz": 1e8, "quantization": {
        "phase_levels": 4, "amplitude_levels": 2, "phase_offset_rad": 0.1}},
    {"frame.payload_symbols": 3}])
def test_a_noiseless_link_frame_matches_its_written_pass(overrides):
    held_and_written(overrides)


@pytest.mark.parametrize("overrides", [
    {}, {"spectrum_bins": None}, {"spectrum_bins": 41}, {"spectrum_bins": 4000},
    {"frame.payload_symbols": 3}])
def test_a_noisy_link_frame_matches_its_written_pass(overrides):
    # both add point 0's samples to its head noise, so the head and the
    # means of the symbols it covers agree
    held_and_written({**overrides, "channel.noise_psd": 0.3})


def direct_periodogram(env) -> Spectrum:
    """env's power spectrum over (-fs/2, fs/2], each bin |X_k / n|^2 of
    oracles.dft_direct, for the reference runner in place of the fast
    transform."""
    n = len(env.samples)
    bins = dft_direct(env.samples)
    first = n // 2 + 1 - n
    return Spectrum(np.abs(bins[(np.arange(n) + first) % n] / n) ** 2, env.sample_rate / n)


@pytest.mark.parametrize("name, overrides", [
    # g = 1: 4 097 samples against a hold of 120
    ("mimo2x2_16qam", {"oversample": 3, "spectrum_bins": 4097,
                       "frame.payload_symbols": 64}),
    # g = 8, the head's last symbol cut short after 16 of its 40 samples
    ("mimo2x2_16qam", {"spectrum_bins": 4096, "frame.payload_symbols": 128}),
    ("mimo2x2_16qam", {"spectrum_bins": 2, "frame.payload_symbols": 3}),
    ("mimo2x2_16qam", {"spectrum_bins": 41, "frame.payload_symbols": 3}),
    ("mimo2x2_16qam", {"spectrum_bins": None, "frame.payload_symbols": 3}),
    # whole frames of both phases; the receive phase holds each step for 3
    # samples, and its ramp period is 21
    *[("integrated_switch", {
        "staircase.steps_per_period": 7, "staircase.period_s": 7e-8, "oversample": 3,
        "staircase.direction": direction, "spectrum_bins": None,
        "frame.payload_symbols": 30}) for direction in ("down", "up")],
], ids=["g1", "partial_symbol", "bins2", "bins41", "whole_frame", "L7_down", "L7_up"])
def test_a_noiseless_spectrum_is_the_direct_dft_of_its_written_head(name, overrides,
                                                                   monkeypatch):
    # simulate transforms every g-th head sample and applies the hold's
    # kernel; the reference runner writes every sample, whose direct DFT
    # takes the place of its fast transform
    data = scen.apply_overrides(scen.load_scenario(name), overrides)
    result = scen.simulate(scen.Scenario.from_dict(data))
    monkeypatch.setattr(spectral, "periodogram", direct_periodogram)
    want = oracles_simulate(data)
    for key, report in result.reports.items():
        for tag, spectrum in report.spectra.items():
            power = want.reports[key].spectra[tag].power
            assert spectrum.resolution == want.reports[key].spectra[tag].resolution
            assert np.max(np.abs(spectrum.power - power)) <= 1e-14 * np.max(power), tag


def test_a_noiseless_head_is_bounded_whatever_oversample():
    # at oversample 100 000 a symbol is 4 x 10^6 samples, and a head of
    # whole symbols, one symbol for the 65 536-bin spectrum, read 61.86 MiB
    # traced. Written at every g-th sample, g = gcd(4 x 10^6, 65 536) = 256,
    # the head is 256 samples (4 KiB); the spectrum is 65 536 bins (512 KiB)
    # and its kernel's sine table 32 769 (256 KiB), and with the frame's
    # weights, means and detection the peak reads 1.34 MiB, under the bound
    # of the bundled frame at oversample 1
    # (test_mimo_frame_simulates_in_bounded_memory)
    result, peak = traced_simulate({"oversample": 100000})
    assert np.all(result.reports["link"].ber == 0.0)
    assert len(result.reports["link"].spectra["rx0"].power) == 65536
    assert peak <= 1.45 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_a_noisy_head_holds_its_spectrum_samples_and_one_symbol_of_noise():
    # at oversample 100 000 a symbol is sps = 4 x 10^6 samples, more than a
    # block, so its noise is drawn one whole symbol (61 MiB) at a time; the
    # head holds the 65 536 samples its spectrum reads. A head of whole
    # symbols beside it, and the link's derotation of ones gathered through
    # an int64 index, read 213.95 MiB traced
    result, peak = traced_simulate({"oversample": 100000, "channel.noise_psd": 1e-3})
    sc = scen.Scenario.from_dict(scen.load_scenario("mimo2x2_16qam"))
    sps = sc.samples_per_symbol * 100000
    assert np.all(result.reports["link"].ber == 0.0)
    assert len(result.reports["link"].spectra["rx0"].power) == 65536
    assert peak <= 16 * sps + 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


class CountingNumpy:
    """numpy as scenario sees it, keeping the size of the largest array that
    any numpy function returns to scenario."""

    def __init__(self):
        self.largest = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.largest = max(self.largest, out.size)
            return out
        return counted


@pytest.mark.parametrize("name, noise_psd", [
    ("mimo2x2_16qam", 0.0), ("mimo2x2_16qam", 1e-3),
    ("integrated_switch", 0.0), ("integrated_switch", 1e-7)])
def test_a_frame_writes_no_sample_beyond_its_spectrum_head(name, noise_psd, monkeypatch):
    # 2 560 envelope samples per symbol and a 4 096-bin head, which ends
    # inside its second symbol, and a frame of over 2.5 x 10^6 samples per
    # point; no array is larger than the noise of the head's two symbols,
    # 5 120 samples: the payload words of two streams of 1 000 16QAM symbols
    # are 2 000 bytes (the block loop wrote 65 536 samples, and the payload
    # bits, 8 000 bytes, were held before the words). A noiseless head is
    # written at every g-th sample, g = gcd(hold, 4 096): the link frame
    # holds each symbol's value for its 2 560 samples (g = 512), the receive
    # phase each ramp step for 64 (g = 64). The array transformed is the
    # head itself: a noisy one was a slice of a head of 5 120 samples
    counter = CountingNumpy()
    monkeypatch.setattr(scen, "np", counter)
    data = scen.apply_overrides(scen.load_scenario(name), {
        "oversample": 64, "frame.payload_symbols": 1000, "spectrum_bins": 4096,
        "channel.noise_psd": noise_psd})
    sc = scen.Scenario.from_dict(data)
    taps = frame_taps(sc)
    strides = [512, 64] if noise_psd == 0.0 else [1, 1]  # each frame's g
    assert [(len(head), owned) for _, head, owned in taps] == [
        (4096 // g, True) for g in strides[:len(taps)]]
    assert 0 < counter.largest <= 5120


def test_a_long_integrated_frame_costs_points_times_symbols():
    # 10^5 payload symbols of 640 samples each: writing, derotating and
    # averaging every sample took 1.5 to 2.4 s a run
    data = scen.apply_overrides(scen.load_scenario("integrated_switch"),
                                {"frame.payload_symbols": 100000})
    sc = scen.Scenario.from_dict(data)
    scen.simulate(sc)
    start = time.perf_counter()
    result = scen.simulate(sc)
    elapsed = time.perf_counter() - start
    assert np.all(result.reports["receive"].ber == 0.0)
    assert elapsed < 0.5, f"{elapsed:.3f} s"


def chi_square_z(noise, variance) -> float:
    """sum |noise|^2 / (variance / 2) as a z-score of chi-square with 2 x
    noise.size degrees of freedom, as i.i.d. circular noise of that
    variance gives."""
    dof = 2 * noise.size
    return (np.sum(np.abs(noise) ** 2) / (variance / 2) - dof) / np.sqrt(2 * dof)


@pytest.mark.parametrize("expected_shift", [0.0, 3e6])
def test_per_symbol_noise_has_the_variance_of_the_per_sample_draw(expected_shift):
    # the old draw: noise on every sample of a silent envelope, integrated
    # (and derotated); the new one: _add_noise on a silent 4000-sample head,
    # whose symbols' means it derotates at num/den = expected_shift / fs,
    # and on the other means
    data = scen.apply_overrides(scen.load_scenario("mimo2x2_16qam"), {
        "channel.noise_psd": 0.3, "spectrum_bins": 4000})
    sc = scen.Scenario.from_dict(data)
    points, symbols, sps = 2, 5000, sc.samples_per_symbol * sc.oversample
    fs = sc.envelope_rate()
    seeds = np.random.SeedSequence(12).spawn(points)  # one per point, for the old draw
    silent = core.ComplexEnvelope(np.zeros(symbols * sps), fs, 0.0)
    old = integrate(surface_pass(silent, core.CoefficientSchedule(
        np.ones((1, symbols * sps), dtype=complex), fs), [0],
        propagation.ChannelSet(np.ones(1), np.ones((1, points))), sc.noise_psd, seeds),
        symbols, expected_shift)
    shift = Fraction(expected_shift) / Fraction(fs)
    head = np.zeros(sc.spectrum_length(symbols * sps), dtype=complex)
    new = np.zeros((points, symbols), dtype=complex)
    scen._add_noise(sc, np.random.default_rng(12), new, head, shift.numerator,
                    shift.denominator)
    covered = len(head) // sps
    assert covered * sps == 4000
    # the head holds the noise whose derotated means the covered symbols
    # hold, within the rounding of a mean of sps samples (assert_close_result)
    np.testing.assert_allclose(
        new[0, :covered], integrate([silent.with_samples(head)], covered, expected_shift)[0],
        rtol=0, atol=4 * sps * np.finfo(float).eps * np.abs(head).max())
    for means in (old, new):
        assert abs(chi_square_z(means, sc.noise_psd / sps)) < 5.0
    assert abs(chi_square_z(head, sc.noise_psd)) < 5.0


def whole_head_noise(sc, rng, means, head, num: int, den: int) -> None:
    """_add_noise as one draw over the whole symbols the head covers, whose
    first len(head) samples the head adds, and one over the other means."""
    sps = sc.samples_per_symbol * sc.oversample
    covered = -(-len(head) // sps)
    noise = np.empty(covered * sps, dtype=complex)
    scen._fill_noise(rng, noise, sc.noise_psd)
    means[0, :covered] += np.einsum(
        "ki,i->k", noise.reshape(covered, sps), scen._rotation(num, den, sps)) * (
        scen._rotation(num * sps, den, covered) / sps)
    head += noise[:len(head)]
    noise = np.empty(means.size - covered, dtype=complex)
    scen._fill_noise(rng, noise, sc.noise_psd / sps)
    rest = means.shape[1] - covered
    means[0, covered:] += noise[:rest]
    means[1:] += noise[rest:].reshape(-1, means.shape[1])


@pytest.mark.parametrize("cut", [0, 13], ids=["whole", "cut"])
@pytest.mark.parametrize("num, den", [(0, 1), (-1, 7 * 20)], ids=["link", "ramp"])
def test_noise_drawn_in_blocks_has_the_bits_of_one_draw(num, den, cut):
    # a head of two blocks and a part, and other means longer than a block,
    # each drawn from the same generator in blocks and in one piece; a head
    # cut 13 samples short of its last symbol adds the noise it holds, and
    # that symbol's mean the noise of all its samples
    data = scen.apply_overrides(scen.load_scenario("mimo2x2_16qam"),
                                {"channel.noise_psd": 0.3})
    sc = scen.Scenario.from_dict(data)
    sps = sc.samples_per_symbol * sc.oversample
    covered = 2 * (core.BLOCK // sps) + 7
    rng = np.random.default_rng(3)
    head = rng.normal(size=(covered * sps - cut, 2)) @ np.array([1.0, 1j])
    means = rng.normal(size=(3, covered + core.BLOCK + 11, 2)) @ np.array([1.0, 1j])
    want_head, want_means = head.copy(), means.copy()
    scen._add_noise(sc, np.random.default_rng(4), means, head, num, den)
    whole_head_noise(sc, np.random.default_rng(4), want_means, want_head, num, den)
    assert _same_bits(head.view(float), want_head.view(float))
    assert _same_bits(means.view(float), want_means.view(float))


def test_integrated_switch_decodes_under_moderate_noise():
    # noise_psd is an absolute per-sample variance, and the free-space legs
    # receive about 1.5e-7; at 1e-7 both phases decode with a few percent
    # EVM, each phase a frame of about 330 000 samples
    data = scen.apply_overrides(scen.load_scenario("integrated_switch"),
                                {"channel.noise_psd": 1e-7})
    reports = scen.simulate(scen.Scenario.from_dict(data)).reports
    for key in ("transmit", "receive"):
        assert np.all(reports[key].ber == 0.0), key
        assert 1.0 < reports[key].evm_percent[0] < 10.0, key


def test_invalid_scenario_raises_listing_every_field(tiny_link):
    tiny_link["geometry"]["spacing_m"] = 0.0
    tiny_link["rng_seed"] = -3
    with pytest.raises(ConfigurationError) as excinfo:
        scen.run_scenario(tiny_link, "unused")
    message = str(excinfo.value)
    assert "geometry.spacing_m" in message and "rng_seed" in message


@pytest.mark.parametrize("name", ["mimo2x2_16qam", "sdc_5mhz", "integrated_switch"])
def test_bundled_scenarios_complete_at_desk_scale(name, tmp_path):
    import time
    start = time.perf_counter()
    result = scen.run_scenario(name, tmp_path)
    assert time.perf_counter() - start < 60.0
    assert (tmp_path / "summary.json").is_file()
    for report in result.reports.values():
        assert np.all(report.ber == 0.0)  # bundled scenarios are noiseless


def test_sdc_summary_contains_harmonic_table(tmp_path):
    result = scen.run_scenario("sdc_5mhz", tmp_path)
    table = result.summary["harmonics"]
    desired = [row for row in table if row["harmonic_index"] == 1]
    assert desired and desired[0]["freq_hz"] == -5e6
    for row in table:
        assert row["power_fraction"] == pytest.approx(
            row["predicted_fraction"], rel=1e-3)
    names = {p.name for p in tmp_path.iterdir()}
    assert {"spectrum_input.npy", "spectrum_output.npy"} <= names
    output = np.load(tmp_path / "spectrum_output.npy")
    assert output.dtype.names == ("freq_hz", "power_linear", "power_db")
    assert output.shape == (len(result.reports["link"].spectra["output"].power),)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("mimo2x2_16qam", "sdc_5mhz", "integrated_switch"):
        assert name in out


def test_cli_validate_ok():
    assert cli.main(["validate", "sdc_5mhz"]) == 0


def test_cli_validate_failure(tiny_link, tmp_path, capsys):
    tiny_link["geometry"]["spacing_m"] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tiny_link))
    assert cli.main(["validate", str(path)]) == 1
    assert "geometry.spacing_m" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("channel.noise_psd", "NaN"),
    ("carrier_freq_hz", "Infinity"),
    ("carrier_freq_hz", "1" + "0" * 400),  # an int too large for a float
], ids=["nan", "infinity", "huge_int"])
def test_cli_validate_rejects_non_finite_numbers(field, value, capsys):
    assert cli.main(["validate", "mimo2x2_16qam",
                     "--override", f"{field}={value}"]) == 1
    assert f"violation: {field}" in capsys.readouterr().err


def test_cli_rejects_unknown_scenario(capsys):
    assert cli.main(["validate", "no_such_scenario"]) == 1
    assert "no_such_scenario" in capsys.readouterr().err


DEEP_ARRAY = "[" * 5000 + "]" * 5000  # deeper than the JSON codec recurses


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text", [
    b'{"name": "\xff\xfe"}',
    b'{"name": ' + DEEP_ARRAY.encode() + b"}",
], ids=["not_utf8", "nested_too_deeply"])
def test_cli_unreadable_scenario_file_exits_one_naming_it(command, text, tmp_path,
                                                          capsys):
    path = tmp_path / "broken.json"
    path.write_bytes(text)
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert f"{str(path)!r} cannot be read as JSON" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("key, repeat", [
    ("name", ('{"name": "sdc_5mhz",', '{"name": "first", "name": "sdc_5mhz",')),
    ("rows", ('"geometry": {"rows": 16,', '"geometry": {"rows": 8, "rows": 16,')),
], ids=["top_level", "nested"])
def test_cli_scenario_file_repeating_a_key_exits_one_naming_it(command, key, repeat,
                                                               tmp_path, capsys):
    # json.loads alone keeps the last value of a repeated key, and the file
    # would run without a word
    text = json.dumps(scen.load_scenario("sdc_5mhz"))
    assert text.count(repeat[0]) == 1
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(*repeat))
    argv = [command, str(path)]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert f"key {key!r} is repeated" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_override_nested_too_deeply_exits_one_naming_it(command, tmp_path,
                                                            capsys):
    argv = [command, "mimo2x2_16qam", "--override", f"frame.pilots={DEEP_ARRAY}"]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert "'frame.pilots'" in err[0]
    assert not (tmp_path / "out").exists()


def test_cli_run_writes_artifacts(tiny_link, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_link))
    rc = cli.main(["run", str(path), "--out-dir", str(tmp_path / "out"),
                   "--override", "frame.payload_symbols=16"])
    assert rc == 0
    assert (tmp_path / "out" / "summary.json").is_file()


def test_cli_run_runtime_error_exits_two(tiny_link, tmp_path):
    # rank-deficient explicit channel validates but fails in detection
    tiny_link["geometry"] = {"rows": 1, "cols": 2, "spacing_m": 0.035,
                             "origin_m": [0.0, 0.0, 0.0]}
    tiny_link["points"].append({"position_m": [0.2, 0.0, 0.5], "role": "rx"})
    tiny_link["partition"] = "left_right"
    tiny_link["channel"] = {
        "kind": "explicit_matrix", "noise_psd": 0.0,
        "matrix": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]}
    path = tmp_path / "rankdef.json"
    path.write_text(json.dumps(tiny_link))
    rc = cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 2


def test_cli_export_writes_one_csv_per_table(tiny_link, tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_link))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out-dir", str(out)]) == 0
    assert cli.main(["export", str(out)]) == 0
    assert f"2 CSV files written to {out}" in capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert names == ["constellation_0.csv", "constellation_0.npy",
                     "spectrum_rx0.csv", "spectrum_rx0.npy", "summary.json"]
    lines = (out / "constellation_0.csv").read_text().splitlines()
    assert lines[0] == "symbol_index,i,q,ref_i,ref_q" and len(lines) == 1 + 32
    assert lines[1].startswith("0,") and lines[-1].startswith("31,")
    header = (out / "spectrum_rx0.csv").read_text().splitlines()[0]
    assert header == "freq_hz,power_linear,power_db"


@pytest.mark.parametrize("files", [None, [], ["summary.json", "notes.npy"]],
                         ids=["missing", "empty", "no_tables"])
def test_cli_export_without_tables_exits_one_naming_dir(files, tmp_path, capsys):
    out = tmp_path / "runs"
    if files is not None:
        out.mkdir()
        for name in files:
            (out / name).write_text("{}")
    assert cli.main(["export", str(out)]) == 1
    assert str(out) in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def _npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


@pytest.mark.parametrize("content", [
    _npy_bytes(np.zeros(4)),
    _npy_bytes(np.zeros((2, 2), artifacts.SPECTRUM_DTYPE)),
    b"",
    _npy_bytes(np.zeros(64, artifacts.SPECTRUM_DTYPE))[:-100],
    b"not a numpy file",
], ids=["plain_array", "two_dimensional", "empty", "truncated", "not_npy"])
def test_export_rejects_an_unreadable_or_foreign_table(content, tmp_path):
    path = tmp_path / "spectrum_rx0.npy"
    path.write_bytes(content)
    with pytest.raises(ConfigurationError, match="spectrum_rx0.npy"):
        artifacts.export_csv(tmp_path)
    assert not path.with_suffix(".csv").exists()


def test_export_writes_a_zero_row_table_as_its_header(tmp_path):
    np.save(tmp_path / "spectrum_rx0.npy", np.zeros(0, artifacts.SPECTRUM_DTYPE))
    path, = artifacts.export_csv(tmp_path)
    assert path.read_text() == "freq_hz,power_linear,power_db\n"


def test_cli_export_of_a_directory_named_like_a_table_exits_one(tiny_link,
                                                                 tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_link))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out-dir", str(out)]) == 0
    (out / "constellation_0.npy").unlink()
    (out / "constellation_0.npy").mkdir()
    capsys.readouterr()
    assert cli.main(["export", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert "constellation_0.npy" in err[0] and "cannot be read" in err[0]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_repeated_override_key_exits_one_naming_it(command, tmp_path, capsys):
    # the last value used to win, so an invalid first value went unseen
    argv = [command, "mimo2x2_16qam", "--override", "frame.payload_symbols=-3",
            "--override", "frame.payload_symbols=5"]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert "'frame.payload_symbols'" in err[0]
    assert not (tmp_path / "out").exists()


def test_cli_seed_flag_overrides_seed(tiny_link, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_link))
    assert cli.main(["run", str(path), "--seed", "99",
                     "--out-dir", str(tmp_path / "a")]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["rng_seed"] == 99
    # --seed goes in last, so it wins over an rng_seed override
    assert cli.main(["run", str(path), "--seed", "99", "--override", "rng_seed=3",
                     "--out-dir", str(tmp_path / "b")]) == 0
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["rng_seed"] == 99


@pytest.mark.parametrize("name, overrides", [
    *((name, {}) for name in schema.bundled_scenario_names()),
    ("sdc_5mhz", {"channel.noise_psd": 0.01})])
def test_the_summary_is_summarize_of_the_reports(name, overrides):
    sc = scen.Scenario.from_dict(scen.apply_overrides(scen.load_scenario(name), overrides))
    result = scen.simulate(sc)
    assert result.summary == scen._summarize(sc, result.reports)


def test_run_bundled_exits_with_the_cli_code_of_a_failed_run(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_bundled.py")
    proc = subprocess.run([sys.executable, script, "--out", str(blocker / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # the CLI's runtime error, not a traceback's 1
    assert proc.stderr.count("runtime error in scenario") == len(
        schema.bundled_scenario_names())


def test_cli_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "metalink.cli", "validate",
                           "mimo2x2_16qam"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout


@pytest.mark.parametrize("direction", ["up", "down"])
@pytest.mark.parametrize("oversample", range(1, 8))
def test_a_two_step_ramp_tabulates_only_lines_on_the_grid(oversample, direction):
    # at L = 2 an odd oversample puts a harmonic at exactly -fs/2, which the
    # periodogram's bins, spanning (-fs/2, fs/2], do not hold
    data = scen.apply_overrides(scen.load_scenario("sdc_5mhz"), {
        "staircase.steps_per_period": 2, "staircase.period_s": 2e-8,
        "staircase.direction": direction, "oversample": oversample, "sdc_periods": 2})
    result = scen.simulate(scen.Scenario.from_dict(data))
    grid = result.reports["link"].spectra["output"].frequencies
    table = result.summary["harmonics"]
    assert table
    for row in table:
        assert np.isfinite([row["power_fraction"], row["predicted_fraction"]]).all()
        assert row["freq_hz"] in grid

