import io
import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from metalink import cli
from metalink import scenario as scen
from metalink.core import ConfigurationError
from metalink.spectral import Spectrum
from metalink.txrx import LinkReport
from oracles import channel_estimate_pairs, write_constellation, write_spectrum


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
    assert result.artifact_paths


def test_rerun_replaces_artifacts_instead_of_rewriting_them(tiny_link, tmp_path):
    out, kept = tmp_path / "out", tmp_path / "kept"
    first = {p.name: p.read_bytes() for p in scen.run_scenario(tiny_link, out).artifact_paths}
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


def _edge_spectrum(n, rng):
    """n random bins with -0.0, nan, zero (-inf dB), subnormal and huge values."""
    freqs = rng.uniform(-5e7, 5e7, n)
    power = rng.exponential(size=n)
    freqs[0], power[0], power[-1] = -0.0, 0.0, 5e-324
    if n > 3:
        freqs[1], power[1], power[2] = np.nan, 1.7e308, -0.0
    return Spectrum(freqs, power, 1.0)


def _write(report, out_dir):
    return scen.write_artifacts(scen.ScenarioResult(None, {"link": report}, {}),
                                out_dir)


def _exported_bytes(report, out_dir):
    _write(report, out_dir)
    return {p.name: p.read_bytes() for p in scen.export_csv(out_dir)}


def _edge_constellation():
    rng = np.random.default_rng(10_001)
    detected, reference = rng.normal(size=(2, 10_001, 2)) @ np.array([1.0, 1j])
    detected[0], reference[-1] = complex(-0.0, 5e-324), complex(1.7e308, -0.0)
    return detected, reference


def _same_bits(a, b) -> bool:
    # compares -0.0, nan payloads and subnormals bit for bit
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


BLOCK_SIZES = [2, scen.CSV_BLOCK_ROWS - 1, scen.CSV_BLOCK_ROWS,
               scen.CSV_BLOCK_ROWS + 1, 2 * scen.CSV_BLOCK_ROWS + 3]


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_spectrum_npy_round_trips_bit_exactly(n, tmp_path):
    spectrum = _edge_spectrum(n, np.random.default_rng(n))
    _write(LinkReport(spectra={"edge": spectrum}), tmp_path)
    table = np.load(tmp_path / "spectrum_edge.npy", allow_pickle=False)
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(spectrum.power)
    assert table.dtype == scen.SPECTRUM_DTYPE
    assert _same_bits(table["freq_hz"], spectrum.frequencies)
    assert _same_bits(table["power_linear"], spectrum.power)
    assert _same_bits(table["power_db"], power_db)


def test_constellation_npy_round_trips_bit_exactly(tmp_path):
    detected, reference = _edge_constellation()
    _write(LinkReport(detected_symbols=[detected], reference_symbols=[reference]),
           tmp_path)
    table = np.load(tmp_path / "constellation_0.npy", allow_pickle=False)
    assert table.dtype == scen.CONSTELLATION_DTYPE
    assert np.array_equal(table["symbol_index"], np.arange(len(detected)))
    for name, column in (("i", detected.real), ("q", detected.imag),
                         ("ref_i", reference.real), ("ref_q", reference.imag)):
        assert _same_bits(table[name], column), name


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_spectrum_csv_matches_csv_writer_oracle(n, tmp_path):
    spectrum = _edge_spectrum(n, np.random.default_rng(n))
    written = _exported_bytes(LinkReport(spectra={"edge": spectrum}), tmp_path / "new")
    write_spectrum(tmp_path / "ref.csv", spectrum)
    assert written == {"spectrum_edge.csv": (tmp_path / "ref.csv").read_bytes()}


def test_constellation_csv_matches_csv_writer_oracle(tmp_path):
    detected, reference = _edge_constellation()
    report = LinkReport(detected_symbols=[detected], reference_symbols=[reference])
    written = _exported_bytes(report, tmp_path / "new")
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
    # the received spectrum peaks 5 MHz below the incoming carrier
    spectrum = result.reports["receive"].spectra["sdc_rx0"]
    peak = spectrum.frequencies[np.argmax(spectrum.power)]
    assert peak == pytest.approx(-5e6, abs=spectrum.resolution / 2)


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


def test_mimo_frame_simulates_in_bounded_memory():
    # 2 x 10^4 symbols over 400 320 samples: schedules stay at the symbol
    # rate and the receive chain stacks only per-symbol means, so the two
    # received envelopes (12.8 MB) dominate the peak
    sc = scen.Scenario.from_dict(scen.load_scenario("mimo2x2_16qam"))
    tracemalloc.start()
    try:
        result = scen.simulate(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(result.reports["link"].ber == 0.0)
    assert peak < 36 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


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
    _npy_bytes(np.zeros((2, 2), scen.SPECTRUM_DTYPE)),
    b"",
    _npy_bytes(np.zeros(64, scen.SPECTRUM_DTYPE))[:-100],
    b"not a numpy file",
], ids=["plain_array", "two_dimensional", "empty", "truncated", "not_npy"])
def test_export_rejects_an_unreadable_or_foreign_table(content, tmp_path):
    path = tmp_path / "spectrum_rx0.npy"
    path.write_bytes(content)
    with pytest.raises(ConfigurationError, match="spectrum_rx0.npy"):
        scen.export_csv(tmp_path)
    assert not path.with_suffix(".csv").exists()


def test_cli_seed_flag_overrides_seed(tiny_link, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_link))
    assert cli.main(["run", str(path), "--seed", "99",
                     "--out-dir", str(tmp_path / "a")]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["rng_seed"] == 99


def test_cli_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "metalink.cli", "validate",
                           "mimo2x2_16qam"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout
