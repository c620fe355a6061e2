"""The scenario field table: what validate reports, what from_dict reads, the
promise that an accepted scenario runs to finite numbers or fails with a
named error, and simulate's seeds and wiring against the reference runners."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metalink import cli
from metalink import scenario as scen
from metalink.core import ConfigurationError
from metalink.txrx import DetectionError

import oracles


# the bundled scenarios at a few milliseconds per run
SHRUNK = {
    "mimo2x2_16qam": {"frame.payload_symbols": 64},
    "sdc_5mhz": {"sdc_periods": 2, "oversample": 2},
    "integrated_switch": {"frame.payload_symbols": 64, "oversample": 1},
}


def bundled(name, overrides):
    return scen.apply_overrides(scen.load_scenario(name), overrides)


# ---------------------------------------------------------------------------
# validation walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, parent, leaves", [
    ("mimo2x2_16qam", "frame",
     ("symbol_rate_baud", "samples_per_symbol", "payload_symbols")),
    ("sdc_5mhz", "staircase", ("steps_per_period", "period_s")),
])
def test_empty_object_reports_every_missing_leaf(name, parent, leaves):
    # an empty object must not validate and then fail in the run with
    # TypeError or KeyError
    violations = scen.validate(bundled(name, {parent: "{}"}))
    assert [v.split(":")[0] for v in violations] == [f"{parent}.{k}" for k in leaves]
    assert all(": required; must be " in v for v in violations)


@pytest.mark.parametrize("name, path", [
    ("mimo2x2_16qam", "oversampel"),
    ("sdc_5mhz", "geometry.colz"),
    ("integrated_switch", "staircase.periods"),
])
def test_unknown_keys_are_reported(name, path):
    assert scen.validate(bundled(name, {path: "32"})) == [f"{path}: unknown field"]


def test_matrix_on_a_free_space_channel_is_reported():
    data = bundled("sdc_5mhz", {"channel.matrix": "[[[1.0, 0.0]]]"})
    assert scen.validate(data) == [
        "channel.matrix: not used by free_space channels; remove it or set it to null"]


@pytest.mark.parametrize("name, kind", [
    ("mimo2x2_16qam", "explicit_matrix"), ("integrated_switch", "identity")])
@pytest.mark.parametrize("value", ["-5", "abc", "0.07"])
def test_wavelength_on_a_channel_without_one_is_reported(name, kind, value):
    data = bundled(name, {"channel.kind": kind, "channel.wavelength_m": value})
    assert scen.validate(data) == [
        f"channel.wavelength_m: not used by {kind} channels; "
        "remove it or set it to null"]


def test_mode_gated_fields_wait_for_a_valid_mode():
    data = bundled("sdc_5mhz", {"mode": "null"})
    assert scen.validate(data) == [f"mode: required; must be one of {scen.MODES}"]


def test_absent_and_null_read_the_same_default():
    fields = ("oversample", "geometry.origin_m", "channel.noise_psd",
              "staircase.direction", "staircase.amplitude", "description")
    nulled = bundled("sdc_5mhz", {path: "null" for path in fields})
    absent = scen.load_scenario("sdc_5mhz")
    for path in fields:
        *parents, leaf = path.split(".")
        node = absent
        for key in parents:
            node = node[key]
        del node[leaf]
    for data in (nulled, absent):
        sc = scen.Scenario.from_dict(data)
        assert (sc.oversample, sc.geometry.origin, sc.noise_psd) == (16, (0, 0, 0), 0)
        assert (sc.staircase.direction, sc.staircase.amplitude) == (-1, 1.0)
        assert sc.description == ""


# a link on a 2 x 4 surface with unit gains
TWO_BY_FOUR = {"geometry.rows": 2, "geometry.cols": 4, "channel.kind": "identity",
               "channel.matrix": None}


def test_left_right_partition_splits_columns():
    sc = scen.Scenario.from_dict(bundled("mimo2x2_16qam", TWO_BY_FOUR))
    assert sc.stream_of_cell.dtype == np.int64
    assert sc.stream_of_cell.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]


def test_left_right_needs_even_columns():
    data = bundled("mimo2x2_16qam", {**TWO_BY_FOUR, "geometry.cols": 3})
    assert scen.validate(data) == ["partition: left_right needs an even column count"]


def test_partition_requires_every_stream_populated():
    data = bundled("mimo2x2_16qam", {**TWO_BY_FOUR, "partition": [0, 0, 2, 2] * 2})
    assert scen.validate(data) == [
        "partition: stream ids must cover 0..S-1 with no gaps"]


def test_override_into_a_null_object_starts_one():
    # mimo2x2_16qam has "quantization": null, which must act as if absent
    data = bundled("mimo2x2_16qam", {"quantization.phase_levels": "16"})
    assert data["quantization"] == {"phase_levels": 16}
    assert scen.validate(data) == []


def test_from_dict_raises_with_the_violation_list():
    data = bundled("mimo2x2_16qam", {"oversampel": "2", "rng_seed": "-1"})
    with pytest.raises(scen.ValidationError) as excinfo:
        scen.Scenario.from_dict(data)
    assert excinfo.value.violations == scen.validate(data)
    assert isinstance(excinfo.value, ConfigurationError)


def test_cli_run_prints_one_line_per_violation(tmp_path, capsys):
    rc = cli.main(["run", "sdc_5mhz", "--out-dir", str(tmp_path / "out"),
                   "--override", "oversampel=2", "--override", "staircase={}"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "violation: oversampel: unknown field",
        "violation: staircase.steps_per_period: required; must be an integer >= 2",
        "violation: staircase.period_s: required; must be a number > 0"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# runs that validate but cannot produce finite numbers raise a named error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    {"staircase.amplitude": 0},
    {"staircase.amplitude": 1e-300},  # the output power underflows to zero
    {"channel": {"kind": "explicit_matrix", "noise_psd": 0.0,
                 "matrix": [[[0.0, 0.0]]] * 256}},
], ids=["zero_amplitude", "tiny_amplitude", "zero_matrix"])
def test_sdc_output_without_power_raises_detection_error(overrides):
    data = bundled("sdc_5mhz", {**SHRUNK["sdc_5mhz"], **overrides})
    with pytest.raises(DetectionError) as excinfo:
        scen.simulate(scen.Scenario.from_dict(data))
    assert excinfo.value.condition_number == math.inf


def test_cli_reports_a_powerless_sdc_output_as_a_detection_error(tmp_path, capsys):
    rc = cli.main(["run", "sdc_5mhz", "--out-dir", str(tmp_path),
                   "--override", "staircase.amplitude=0"])
    assert rc == 2
    assert "condition number inf" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sdc_5mhz", "integrated_switch"])
def test_non_finite_channel_gains_raise_a_configuration_error(name):
    # at a 1e300 m cell pitch the distances overflow and the gains become NaN
    data = bundled(name, {**SHRUNK[name], "geometry.spacing_m": 1e300})
    with pytest.raises(ConfigurationError, match="not finite"):
        scen.simulate(scen.Scenario.from_dict(data))


# ---------------------------------------------------------------------------
# property: an accepted scenario runs to finite numbers or a named error
# ---------------------------------------------------------------------------

SHRUNK_DATA = {name: bundled(name, overrides) for name, overrides in SHRUNK.items()}
VALUES = [None, 0, 1, -1, 2, 0.5, 1e-300, 1e300, "", "abc", "down", [], {},
          [0.0, 0.0, 1.0], {"kind": "identity"}, {"rows": 1}]


def _set(data, path, value):
    *parents, leaf = path.split(".")
    node = data
    for key in parents:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[leaf] = copy.deepcopy(value)


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def check_runs_or_names_its_error(name, changes):
    data = copy.deepcopy(SHRUNK_DATA[name])
    # deeper paths first, so a later parent value replaces what they set
    for path in sorted(changes, key=lambda p: -p.count(".")):
        _set(data, path, changes[path])
    if scen.validate(data):
        return
    try:
        result = scen.simulate(scen.Scenario.from_dict(data))
    except (DetectionError, ConfigurationError):
        return
    assert all(math.isfinite(v) for v in _numbers(result.summary)), changes


@pytest.mark.parametrize("path", [f.path for f in scen.FIELDS])
@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_every_single_change_runs_to_finite_numbers_or_a_named_error(name, path):
    for value in VALUES:
        check_runs_or_names_its_error(name, {path: value})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SHRUNK)),
       changes=st.dictionaries(st.sampled_from([f.path for f in scen.FIELDS]),
                               st.sampled_from(VALUES), min_size=2, max_size=2))
def test_pairs_of_changes_run_to_finite_numbers_or_a_named_error(name, changes):
    check_runs_or_names_its_error(name, changes)


# ---------------------------------------------------------------------------
# simulate against the reference runners: same seeds, same wiring, same bits
# ---------------------------------------------------------------------------

WIRING_CASES = [
    pytest.param(name, {"channel.noise_psd": psd, "rng_seed": seed},
                 id=f"{name}-psd{psd}-seed{seed}")
    for name in sorted(SHRUNK) for psd in (0, 0.01) for seed in (0, 1, 2)
] + [
    pytest.param("integrated_switch", {
        "channel.noise_psd": 0.01, "partition": "left_right",
        "points": SHRUNK_DATA["integrated_switch"]["points"] + [
            {"position_m": [-0.25, 0.0, 0.55], "role": "rx"}]}, id="left_right"),
    pytest.param("mimo2x2_16qam", {
        "channel.noise_psd": 0.01, "partition": [0, 1] * 4 + [1, 0] * 4},
        id="partition_list"),
]


@pytest.mark.parametrize("name, overrides", WIRING_CASES)
def test_simulate_matches_the_reference_runners(name, overrides):
    data = scen.apply_overrides(SHRUNK_DATA[name], overrides)
    got = scen.simulate(scen.Scenario.from_dict(data))
    want = oracles.simulate(data)
    assert got.summary == want.summary
    assert got.reports.keys() == want.reports.keys()
    for key, report in got.reports.items():
        ref = want.reports[key]
        assert np.array_equal(report.detected_symbols, ref.detected_symbols)
        assert np.array_equal(report.reference_symbols, ref.reference_symbols)
        assert report.spectra.keys() == ref.spectra.keys()
        for tag, spectrum in report.spectra.items():
            assert np.array_equal(spectrum.frequencies, ref.spectra[tag].frequencies)
            assert np.array_equal(spectrum.power, ref.spectra[tag].power)
