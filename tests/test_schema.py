"""The scenario field table: what validate reports, what from_dict reads, the
promise that an accepted scenario runs to finite numbers or fails with a
named error, and simulate's seeds and wiring against the reference runners."""

import copy
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metalink import artifacts, cli, core, propagation, schema, txrx
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
    ("sdc_5mhz", "channel.wavelength_m"),  # the carrier alone sets the wavelength
])
def test_unknown_keys_are_reported(name, path):
    assert scen.validate(bundled(name, {path: "32"})) == [f"{path}: unknown field"]


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "/abs", ".", "..",
                                  "a\0b"])
def test_a_name_that_is_not_one_path_component_is_reported(name, tmp_path,
                                                           monkeypatch, capsys):
    # the name is the default output directory under metalink_out/, so it
    # must not lead out of it
    data = bundled("mimo2x2_16qam", {"name": name})
    violations = scen.validate(data)
    assert len(violations) == 1 and violations[0].startswith("name: must be ")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(path)]) == 1
    assert "violation: name: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json"]


@pytest.mark.parametrize("name", ["a..b", "x.y", "..a", "n a m e"])
def test_a_name_with_dots_inside_one_component_is_accepted(name):
    assert scen.validate(bundled("mimo2x2_16qam", {"name": name})) == []


def test_matrix_on_a_free_space_channel_is_reported():
    data = bundled("sdc_5mhz", {"channel.matrix": "[[[1.0, 0.0]]]"})
    assert scen.validate(data) == [
        "channel.matrix: not used by free_space channels; remove it or set it to null"]


@pytest.mark.parametrize("name, reaches", [("mimo2x2_16qam", False), ("sdc_5mhz", True)])
def test_the_carrier_reaches_outputs_only_as_the_free_space_wavelength(
        name, reaches, tmp_path):
    # carrier_freq_hz is the envelopes' reference and no output names it: it
    # moves a byte only as the wavelength of a free_space channel, which it
    # alone sets
    written = []
    for carrier in (4.25e9, 5e9):
        scen.run_scenario(name, tmp_path / str(carrier), overrides={
            **SHRUNK[name], "carrier_freq_hz": carrier})
        written.append(artifact_bytes(tmp_path / str(carrier)))
    assert (written[0] != written[1]) == reaches


def test_mode_gated_fields_wait_for_a_valid_mode():
    data = bundled("sdc_5mhz", {"mode": "null"})
    assert scen.validate(data) == [f"mode: required; must be one of {schema.MODES}"]


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
    base = scen.load_scenario("mimo2x2_16qam")
    data = scen.apply_overrides(base, {"quantization.phase_levels": "16"})
    assert data["quantization"] == {"phase_levels": 16}
    assert base["quantization"] is None
    assert scen.validate(data) == []


def test_overrides_copy_only_the_objects_on_their_paths():
    base = scen.load_scenario("mimo2x2_16qam")
    before = copy.deepcopy(base)
    data = scen.apply_overrides(base, {"frame.payload_symbols": "8",
                                       "frame.samples_per_symbol": 2})
    assert data["frame"] == {**before["frame"], "payload_symbols": 8,
                             "samples_per_symbol": 2}
    assert base == before
    assert data["frame"] is not base["frame"]
    assert data["channel"] is base["channel"]  # off every path: shared


def test_a_later_override_leaves_an_earlier_value_unchanged():
    frame = {"symbol_rate_baud": 1e6}
    data = scen.apply_overrides(scen.load_scenario("mimo2x2_16qam"),
                                {"frame": frame, "frame.payload_symbols": 8})
    assert data["frame"] == {"symbol_rate_baud": 1e6, "payload_symbols": 8}
    assert frame == {"symbol_rate_baud": 1e6}


# a parent key and one of its children in both orders; the child applies
# after its parent either way
FRAME = {"symbol_rate_baud": 2.5e6, "samples_per_symbol": 40, "payload_symbols": 7}
OVERLAPS = {"child_first": {"frame.payload_symbols": 5, "frame": FRAME},
            "parent_first": {"frame": FRAME, "frame.payload_symbols": 5}}


def artifact_bytes(out_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("overrides", OVERLAPS.values(), ids=OVERLAPS.keys())
def test_a_child_override_applies_after_its_parent_in_either_order(overrides):
    data = scen.apply_overrides(scen.load_scenario("mimo2x2_16qam"), overrides)
    assert data["frame"] == {**FRAME, "payload_symbols": 5}
    assert FRAME["payload_symbols"] == 7


@pytest.mark.parametrize("overrides", OVERLAPS.values(), ids=OVERLAPS.keys())
def test_overlapping_overrides_write_the_childs_artifacts(overrides, tmp_path):
    scen.run_scenario("mimo2x2_16qam", tmp_path / "want",
                      overrides={"frame.payload_symbols": 5})
    scen.run_scenario("mimo2x2_16qam", tmp_path / "api", overrides=overrides)
    pairs = [arg for key, value in overrides.items()
             for arg in ("--override", f"{key}={json.dumps(value)}")]
    assert cli.main(["run", "mimo2x2_16qam", "--out-dir", str(tmp_path / "cli"),
                     *pairs]) == 0
    want = artifact_bytes(tmp_path / "want")
    assert artifact_bytes(tmp_path / "api") == want
    assert artifact_bytes(tmp_path / "cli") == want


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("child_first", [True, False])
def test_the_cli_checks_the_child_of_an_overlapping_override(command, child_first,
                                                            tmp_path, capsys):
    # a valid parent value used to hide an invalid child given before it
    overrides = [("frame.payload_symbols", -3), ("frame", FRAME)]
    overrides = dict(overrides if child_first else overrides[::-1])
    assert cli_violations(command, "mimo2x2_16qam", overrides, tmp_path, capsys) == [
        "violation: frame.payload_symbols: must be an integer >= 1"]


def _nested(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


def holding(what: str) -> dict:
    """mimo2x2_16qam holding a value no JSON text spells: an array, the
    scenario itself, or a list nested deeper than the JSON codec recurses."""
    data = scen.load_scenario("mimo2x2_16qam")
    if what == "array":
        data["points"][0]["position_m"] = np.array([0.0, 0.0, 1.0])
    elif what == "itself":
        data["frame"]["self"] = data
    else:
        data["description"] = _nested(5000)
    return data


@pytest.mark.parametrize("what, path", [
    ("array", "points"), ("itself", "frame.self"), ("nested", "description")])
def test_a_dict_holding_a_value_json_cannot_spell_names_its_field(what, path):
    data = holding(what)
    violations = scen.validate(data)
    assert [v.split(":")[0] for v in violations] == [path]
    with pytest.raises(schema.ValidationError) as excinfo:
        scen.Scenario.from_dict(data)
    assert excinfo.value.violations == violations


def _tuples(value):
    """value with each list in it, at any depth, made a tuple."""
    if isinstance(value, list):
        return tuple(map(_tuples, value))
    if isinstance(value, dict):
        return {key: _tuples(v) for key, v in value.items()}
    return value


# mimo2x2_16qam's left_right partition as one stream id per cell
LISTED = {**SHRUNK["mimo2x2_16qam"], "partition": [0, 0, 1, 1] * 4}


def test_tuple_inputs_write_the_artifacts_of_list_inputs(tmp_path):
    lists = bundled("mimo2x2_16qam", LISTED)
    tuples = {"points": _tuples(lists["points"]), "partition": _tuples(lists["partition"]),
              "channel.matrix": _tuples(lists["channel"]["matrix"])}
    source = {**lists, "points": tuples["points"], "partition": tuples["partition"],
              "channel": {**lists["channel"], "matrix": tuples["channel.matrix"]}}
    assert scen.validate(source) == []
    scen.run_scenario(lists, tmp_path / "lists")
    scen.run_scenario(source, tmp_path / "dict")
    scen.run_scenario(lists, tmp_path / "overrides", overrides=tuples)
    want = artifact_bytes(tmp_path / "lists")
    assert artifact_bytes(tmp_path / "dict") == want
    assert artifact_bytes(tmp_path / "overrides") == want


def test_a_run_neither_changes_nor_keeps_the_callers_dict(tmp_path):
    data = bundled("mimo2x2_16qam", LISTED)
    before = copy.deepcopy(data)
    scen.run_scenario(data, tmp_path / "run", overrides={"frame.payload_symbols": 9})
    sc = scen.Scenario.from_dict(data)
    assert data == before
    # writes into the lists the Scenario was read from
    data["points"][1]["position_m"][0] += 0.25
    data["channel"]["matrix"][0][0][0] += 1.0
    data["partition"][0] = 1
    data["geometry"]["origin_m"][0] = 1.0
    artifacts.write_artifacts(scen.simulate(sc), tmp_path / "kept")
    scen.run_scenario(before, tmp_path / "fresh")
    assert artifact_bytes(tmp_path / "kept") == artifact_bytes(tmp_path / "fresh")


@pytest.mark.parametrize("text", [b'{"name": "\xff\xfe"}', b"[" * 5000 + b"]" * 5000],
                         ids=["not_utf8", "nested_too_deeply"])
def test_loading_an_unusable_file_names_it(text, tmp_path):
    path = tmp_path / "broken.json"
    path.write_bytes(text)
    with pytest.raises(ConfigurationError, match="cannot be read as JSON") as excinfo:
        scen.load_scenario(path)
    assert str(path) in str(excinfo.value)


def test_an_override_nested_too_deeply_names_it():
    base = scen.load_scenario("mimo2x2_16qam")
    with pytest.raises(ConfigurationError, match="'frame.pilots' nests too deeply"):
        scen.apply_overrides(base, {"frame.pilots": "[" * 5000 + "]" * 5000})


@pytest.mark.parametrize("noise_psd", [-0.1, -1e-300, float("nan")])
def test_a_negative_or_nan_noise_level_is_reported(noise_psd):
    # it must not read as "no noise" and run noiseless
    violations = scen.validate(bundled("sdc_5mhz", {"channel.noise_psd": noise_psd}))
    assert any("channel.noise_psd" in v for v in violations), violations


def test_from_dict_raises_with_the_violation_list():
    data = bundled("mimo2x2_16qam", {"oversampel": "2", "rng_seed": "-1"})
    with pytest.raises(schema.ValidationError) as excinfo:
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


ENVELOPE_OVERFLOW = "oversample: envelope rate oversample * control_rate_hz overflows"
# link and SDC scenarios whose every rate is finite but whose envelope rate
# is not; the run would fail on an infinite envelope rate
ENVELOPE_OVERFLOWS = {
    "link": ("mimo2x2_16qam", {"control_rate_hz": 1e308, "oversample": 4,
                               "frame.symbol_rate_baud": 2.5e306}),
    "sdc": ("sdc_5mhz", {"control_rate_hz": 1e308, "staircase.period_s": 2e-307}),
    "huge_oversample": ("mimo2x2_16qam", {"oversample": 10 ** 400}),
}


@pytest.mark.parametrize("name, overrides", ENVELOPE_OVERFLOWS.values(),
                         ids=ENVELOPE_OVERFLOWS.keys())
def test_an_envelope_rate_that_overflows_is_a_violation(name, overrides):
    assert scen.validate(bundled(name, overrides)) == [ENVELOPE_OVERFLOW]


def cli_violations(command, name, overrides, tmp_path, capsys) -> list:
    """The stderr lines of metalink validate or run, which must exit 1."""
    out = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
    pairs = [arg for key, value in overrides.items()
             for arg in ("--override", f"{key}={json.dumps(value)}")]
    assert cli.main([command, name, *out, *pairs]) == 1
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, overrides", ENVELOPE_OVERFLOWS.values(),
                         ids=ENVELOPE_OVERFLOWS.keys())
def test_the_cli_names_an_envelope_rate_that_overflows(command, name, overrides,
                                                        tmp_path, capsys):
    assert cli_violations(command, name, overrides, tmp_path, capsys) == [
        f"violation: {ENVELOPE_OVERFLOW}"]


STAIRCASE_RULE = ("staircase: control_rate_hz * period_s must equal steps_per_period "
                  "exactly (integer samples per period)")
COUNT_RULE = "{}: must be at most 2**53 (it is counted in float64)"
# integers too large for a float, each named by the rule it breaks
HUGE_INTEGERS = {
    # symbol_rate_baud * samples_per_symbol cannot be formed as a float
    "samples_per_symbol": ("mimo2x2_16qam", {"frame.samples_per_symbol": 10 ** 400},
                           "frame: symbol_rate_baud * samples_per_symbol must equal "
                           "control_rate_hz"),
    # nor control_rate_hz * period_s - steps_per_period
    "sdc_steps": ("sdc_5mhz", {"staircase.steps_per_period": 10 ** 400}, STAIRCASE_RULE),
    "integrated_steps": ("integrated_switch", {"staircase.steps_per_period": 10 ** 400},
                         STAIRCASE_RULE),
    # the quantizer would scale its phases and amplitudes by these
    "phase_levels": ("mimo2x2_16qam", {"quantization.phase_levels": 10 ** 400},
                     COUNT_RULE.format("quantization.phase_levels")),
    "amplitude_levels": ("mimo2x2_16qam", {"quantization.amplitude_levels": 10 ** 400},
                         COUNT_RULE.format("quantization.amplitude_levels")),
    # an int64 phase grid index overflows from 2**63 levels
    "phase_levels_int64": ("integrated_switch", {"quantization.phase_levels": 2 ** 63},
                           COUNT_RULE.format("quantization.phase_levels")),
    # the cell axes, a frame's symbols and an SDC tone's samples are sized by these
    "rows": ("integrated_switch", {"geometry.rows": 10 ** 400},
             COUNT_RULE.format("geometry.rows")),
    "cols": ("integrated_switch", {"geometry.cols": 10 ** 400},
             COUNT_RULE.format("geometry.cols")),
    "payload_symbols": ("mimo2x2_16qam", {"frame.payload_symbols": 10 ** 400},
                        COUNT_RULE.format("frame.payload_symbols")),
    "sdc_periods": ("sdc_5mhz", {"sdc_periods": 10 ** 400}, COUNT_RULE.format("sdc_periods")),
}


@pytest.mark.parametrize("name, overrides, violation", HUGE_INTEGERS.values(),
                         ids=HUGE_INTEGERS.keys())
def test_an_integer_too_large_for_a_float_is_a_violation(name, overrides, violation):
    assert scen.validate(bundled(name, overrides)) == [violation]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, overrides, violation", HUGE_INTEGERS.values(),
                         ids=HUGE_INTEGERS.keys())
def test_the_cli_names_an_integer_too_large_for_a_float(command, name, overrides,
                                                        violation, tmp_path, capsys):
    assert cli_violations(command, name, overrides, tmp_path, capsys) == [
        f"violation: {violation}"]


def test_validate_holds_no_per_cell_array_of_a_10_to_the_5_square_surface():
    # the coincidence check forms three values of each axis per point, not
    # the 10^10 cell positions (224 GiB as float64) nor the axes (7.6 MiB);
    # the in-plane point at the cell of the last row and first column
    # coincides, the one beside it not
    half = (10 ** 5 - 1) / 2 * 0.5
    data = bundled("integrated_switch", {
        "geometry.rows": 10 ** 5, "geometry.cols": 10 ** 5, "geometry.spacing_m": 0.5})
    data["points"] += [{"position_m": [-half, half, 0.0], "role": "rx"},
                       {"position_m": [-half + 0.25, half, 0.0], "role": "rx"}]
    tracemalloc.start()
    try:
        violations = scen.validate(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == ["points[2]: coincides with a unit-cell position"]
    assert peak < 2 ** 16, f"peak {peak / 2 ** 10:.1f} KiB"


def test_a_surface_too_large_to_allocate_validates():
    # 10^12 rows: one axis alone would be 7.28 TiB; running it is left to a
    # size budget. The CLI form runs once unmeasured first, so the one-time
    # caches of its argument parser stay out of the peak.
    data = bundled("sdc_5mhz", {"geometry.rows": 10 ** 12})
    argv = ["validate", "sdc_5mhz", "--override", "geometry.rows=1000000000000"]
    cli.main(argv)
    for check, want in ((lambda: scen.validate(data), []), (lambda: cli.main(argv), 0)):
        tracemalloc.start()
        try:
            got = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 ** 16, f"peak {peak / 2 ** 10:.1f} KiB"


def axis_scan_coincides(geometry: core.SurfaceGeometry, point) -> bool:
    """The coincidence rule over every value of core.cell_axes: a zero
    square, as Python floats form it, on each axis."""
    x, y, z = core.cell_axes(geometry)
    return all(any((c - v) * (c - v) == 0.0 for c in axis)
               for v, axis in zip(point, (x.tolist(), y.tolist(), [z])))


def coincidence_cases(rng) -> list:
    """(geometry, points): a random grid, and points at random, on its cell
    values exactly, a subnormal or a tiny normal offset or an ulp away from
    them, and beyond its ends."""
    rows, cols = (int(n) for n in rng.integers(1, 40, 2))
    spacing = float(10.0 ** rng.uniform(-170, 300)) if rng.random() < 0.3 else \
        float(rng.uniform(1e-3, 1.0))
    origin = tuple(float(v) for v in rng.choice(
        [0.0, 1.0, -2.5, 1e-170, 1e10], 3) * rng.uniform(0.5, 2.0, 3))
    geometry = core.SurfaceGeometry(rows, cols, spacing, origin)
    x, y, z = core.cell_axes(geometry)
    points = []
    for _ in range(30):
        exact = np.array([rng.choice(x), rng.choice(y), z])
        how = rng.integers(6)
        if how == 0:
            exact = exact + rng.uniform(-1, 1, 3) * spacing * max(rows, cols)
        elif how == 1:
            exact[rng.integers(3)] += rng.choice([5e-324, -1e-320, 1e-170, -1e-163])
        elif how == 2:
            exact[rng.integers(3)] += rng.choice([1e-150, -1e-161])
        elif how == 3:
            i = rng.integers(3)
            exact[i] = np.nextafter(exact[i], rng.choice([-np.inf, np.inf]))
        elif how == 4:
            exact[:2] += rng.choice([-1, 1], 2) * spacing * (max(rows, cols) + 1)
        points.append([float(v) for v in exact])
    return geometry, points


@pytest.mark.parametrize("seed", range(40))
def test_the_coincidence_check_agrees_with_the_full_axis_scan(seed):
    geometry, points = coincidence_cases(np.random.default_rng(seed))
    data = {"name": "grid", "mode": "transmit_link", "geometry": {
        "rows": geometry.rows, "cols": geometry.cols, "spacing_m": geometry.spacing,
        "origin_m": list(geometry.origin)},
        "points": [{"position_m": p, "role": "rx"} for p in points]}
    want = [f"points[{i}]: coincides with a unit-cell position"
            for i, p in enumerate(points) if axis_scan_coincides(geometry, p)]
    assert [v for v in scen.validate(data) if "coincides" in v] == want


def test_the_coincidence_check_takes_integers_whose_difference_overflows_a_float():
    # JSON integers: 10^308 - (-10^308) is an integer no float holds, so the
    # check takes each coordinate as a float first
    data = {"name": "grid", "mode": "transmit_link", "geometry": {
        "rows": 3, "cols": 3, "spacing_m": 1, "origin_m": [-10 ** 308, 0, 0]},
        "points": [{"position_m": [10 ** 308, 0, 0], "role": "rx"},
                   {"position_m": [-10 ** 308, 1, 0], "role": "rx"}]}
    assert [v for v in scen.validate(data) if "coincides" in v] == [
        "points[1]: coincides with a unit-cell position"]


@pytest.mark.parametrize("seed", range(10))
def test_every_cell_of_an_axis_of_2_to_the_53_values_coincides(seed):
    # no scan can run here; each point is a cell's position, formed as
    # core.cell_axes forms it (on a one-value slice of its arange), and the
    # index nearest it, as a float, may be a neighbour of the cell's own
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 ** 50, 2 ** 53 + 1))
    spacing = float(10.0 ** rng.uniform(-12, 0))
    points = []
    for m in rng.integers(0, n, (20, 2)):
        x, y = ((np.arange(k, k + 1) - (n - 1) / 2) * spacing + 0.0 for k in m)
        points.append({"position_m": [float(x[0]), float(y[0]), 0.0], "role": "rx"})
    data = {"name": "grid", "mode": "transmit_link", "geometry": {
        "rows": n, "cols": n, "spacing_m": spacing, "origin_m": [0.0, 0.0, 0.0]},
        "points": points}
    assert [v for v in scen.validate(data) if "coincides" in v] == [
        f"points[{i}]: coincides with a unit-cell position" for i in range(20)]


@pytest.mark.parametrize("key", ["phase_levels", "amplitude_levels"])
def test_2_to_the_53_levels_run(key):
    data = bundled("mimo2x2_16qam", {**SHRUNK["mimo2x2_16qam"],
                                     f"quantization.{key}": 2 ** 53})
    result = scen.simulate(scen.Scenario.from_dict(data))
    assert np.all(result.reports["link"].ber == 0.0)


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
          [0.0, 0.0, 1.0], {"kind": "identity"}, {"rows": 1},
          # values no JSON text spells, as a dict or an override may give them
          np.array(["transmit_link"]), np.array([0, 1] * 8), np.array([0.0, 0.0, 1.0]),
          np.int64(2), np.float64(0.5), np.str_("down"), (0.0, 0.0, 1.0), {"a"}, b"QPSK"]


@pytest.mark.parametrize("field", schema.FIELDS, ids=lambda f: f.path)
def test_every_check_returns_a_bool_for_any_value(field):
    for value in VALUES + [_nested(5000)]:
        assert type(field.check(value)) in (bool, np.bool_), value


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
    violations = scen.validate(data)
    assert isinstance(violations, list) and all(isinstance(v, str) for v in violations)
    if violations:
        with pytest.raises(schema.ValidationError) as excinfo:
            scen.Scenario.from_dict(data)
        assert excinfo.value.violations == violations, changes
        return
    json.dumps(data)  # the encoding the summary writer uses
    try:
        result = scen.simulate(scen.Scenario.from_dict(data))
    except (DetectionError, ConfigurationError):
        return
    assert all(math.isfinite(v) for v in _numbers(result.summary)), changes


@pytest.mark.parametrize("path", [f.path for f in schema.FIELDS])
@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_every_single_change_runs_to_finite_numbers_or_a_named_error(name, path):
    for value in VALUES:
        check_runs_or_names_its_error(name, {path: value})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SHRUNK)),
       changes=st.dictionaries(st.sampled_from([f.path for f in schema.FIELDS]),
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
    pytest.param("sdc_5mhz", {
        "channel.noise_psd": 0.01, "points": SHRUNK_DATA["sdc_5mhz"]["points"] + [
            {"position_m": [x, 0.1, 0.6], "role": "rx"} for x in (-0.2, 0.1)]},
        id="sdc_three_points"),
] + [
    # simulate takes the SDC spectrum from one ramp period, the reference
    # runner passes a whole-run staircase: odd periods, one sample a step;
    # both take the line as direction * control_rate_hz / L, which a period
    # of L * 1e-8 s does not give exactly as direction / period_s
    pytest.param("sdc_5mhz", {
        "staircase.steps_per_period": L, "staircase.period_s": L * 1e-8,
        "oversample": 1, "staircase.direction": "up", "staircase.amplitude": 0.8,
        "channel.noise_psd": psd},
        id=f"sdc_L{L}_up-psd{psd}")
    for L in (3, 7) for psd in (0, 0.01)
] + [
    # the receive phase at an odd ramp period of 21 samples, against the
    # reference runner's derotation of every written sample
    pytest.param("integrated_switch", {
        "staircase.steps_per_period": 7, "staircase.period_s": 7e-8, "oversample": 3,
        "staircase.direction": direction, "channel.noise_psd": psd},
        id=f"integrated_L7_{direction}-psd{psd}")
    for direction in ("down", "up") for psd in (0, 0.01)
]

# these cases restore the bundled frame sizes: in mimo2x2_16qam the first
# point's 65 536-sample spectrum head, over which it draws per-sample noise,
# covers part of the frame, or all of it without spectrum_bins; in
# integrated_switch, which decodes at this noise level, it covers part of
# each phase's frame
FULL_SIZE = {"mimo2x2_16qam": {"frame.payload_symbols": 10000},
             "integrated_switch": {"frame.payload_symbols": 512, "oversample": 16}}
FULL_SIZE_CASES = [
    pytest.param("mimo2x2_16qam", {**FULL_SIZE["mimo2x2_16qam"],
                                   "channel.noise_psd": 0.01}, id="head"),
    pytest.param("mimo2x2_16qam", {**FULL_SIZE["mimo2x2_16qam"],
                                   "channel.noise_psd": 0.01, "spectrum_bins": None},
                 id="whole-head"),
    pytest.param("integrated_switch", {**FULL_SIZE["integrated_switch"],
                                       "channel.noise_psd": 1e-7}, id="integrated-head"),
    pytest.param("mimo2x2_16qam", FULL_SIZE["mimo2x2_16qam"], id="held-head"),
    pytest.param("integrated_switch", FULL_SIZE["integrated_switch"],
                 id="held-integrated"),
]


@pytest.mark.parametrize("name, overrides", WIRING_CASES + FULL_SIZE_CASES)
def test_overrides_leave_the_shared_scenarios_unchanged(name, overrides):
    before = copy.deepcopy(SHRUNK_DATA)
    scen.apply_overrides(SHRUNK_DATA[name], overrides)
    assert SHRUNK_DATA == before


@pytest.mark.parametrize("name, overrides", FULL_SIZE_CASES)
def test_full_size_heads_cover_part_or_all_of_the_frame(name, overrides):
    sc = scen.Scenario.from_dict(scen.apply_overrides(SHRUNK_DATA[name], overrides))
    sps = sc.samples_per_symbol * sc.oversample
    for streams in (1, 2):
        samples = (len(txrx.make_pilots(streams)[0]) + sc.payload_symbols) * sps
        whole = sc.spectrum_bins is None
        assert (sc.spectrum_length(samples) == samples) == whole
        assert sc.spectrum_length(samples) > 100 * sps


@pytest.mark.parametrize("name, overrides", WIRING_CASES + FULL_SIZE_CASES)
def test_simulate_matches_the_reference_runners(name, overrides):
    data = scen.apply_overrides(SHRUNK_DATA[name], overrides)
    sc = scen.Scenario.from_dict(data)
    assert_close_result(scen.simulate(sc), oracles.simulate(data), sc)


# simulate takes the SDC output from one ramp period, the reference runner
# from the whole capture: ramps of 2 to 20 steps, 1 to 64 samples a step,
# and 1, 2 or 37 periods (an odd count makes periods times a DFT bin round)
SDC_GRID = [
    pytest.param({"staircase.steps_per_period": L, "staircase.period_s": L * 1e-8,
                  "oversample": oversample, "sdc_periods": periods,
                  "staircase.direction": direction, "channel.noise_psd": psd},
                 id=f"L{L}-os{oversample}-P{periods}-{direction}-psd{psd}")
    for L in (2, 3, 7, 20) for oversample in (1, 3, 64) for periods in (1, 2, 37)
    for direction in ("down", "up") for psd in (0, 0.01)
]


@pytest.mark.parametrize("overrides", SDC_GRID)
def test_the_sdc_output_is_the_periodogram_of_the_whole_capture(overrides):
    data = scen.apply_overrides(SHRUNK_DATA["sdc_5mhz"], overrides)
    sc = scen.Scenario.from_dict(data)
    result = scen.simulate(sc)
    assert_close_result(result, oracles.simulate(data), sc)
    if sc.noise_psd == 0.0:
        # a noiseless capture repeats one period exactly, so every bin off
        # the lattice of multiples of 1/period is 0, not rounding residue
        spectrum = result.reports["link"].spectra["output"]
        k = spectrum.first_bin + np.arange(len(spectrum.power))
        assert np.all(spectrum.power[k % sc.sdc_periods != 0] == 0.0)


EPS = np.finfo(float).eps  # 2u, twice the unit roundoff


def assert_close_result(got, want, sc):
    """Equal spectra, bits and structure, and the detected numbers within
    the rounding bound of the means.

    The reference runner writes every sample and averages sps of them;
    simulate takes each mean in closed form and adds the mean of the
    samples' noise to it. Summing n terms in any order errs by at most
    (n - 1) u sum |x_i| (first order, u = EPS / 2), and dividing by n adds
    u |mean|, so each mean is within sps u M of exact and the two differ by
    at most t = sps EPS M, M the largest sample magnitude. A sample is the
    signal, at most ||h|| sqrt(S) R for S streams of peak R, plus its noise,
    below 6 sqrt(noise_psd) here. Both derotate at exact phases, which add a
    few u. Detection forms h = y_pilot P^H / n_p, a mean of +-y, so
    |dh| <= t per element, and x = pinv(h) y, so per element
    |dx| <= ||pinv(h)|| (sqrt(P) t + ||dh|| sqrt(S) X)
         <= cond / ||h|| sqrt(P) t (1 + S X) = tol_x
    for P points and X = max |x|; it is taken with a factor 4 for the
    rounding of detection itself, of order cond EPS X. The channel estimate
    moves by at most t, the condition number by 2 cond ||dh|| / ||h||, and
    EVM by 100 |dx| / reference RMS. A noisy frame's spectrum head is
    written the same way by both, so its spectrum agrees bit for bit, and no
    bit decision moves. A noiseless frame's spectrum agrees within
    oracles.SDC_RTOL of its peak power: simulate transforms every g-th
    sample of the held head and applies the hold's kernel, the reference
    runner transforms every sample. The SDC output spectrum and its
    harmonic fractions agree within oracles.SDC_RTOL too: simulate takes
    them from one ramp period, the reference runner from the whole capture.
    """
    sps = (sc.samples_per_symbol or 1) * sc.oversample
    assert got.summary.keys() == want.summary.keys()
    assert got.reports.keys() == want.reports.keys()
    for key in got.summary:
        if key == "harmonics":
            oracles.assert_close_harmonics(got.summary[key], want.summary[key])
        elif key != "reports":
            assert got.summary[key] == want.summary[key], key
    for key, report in got.reports.items():
        ref = want.reports[key]
        assert report.spectra.keys() == ref.spectra.keys()
        for tag, spectrum in report.spectra.items():
            want_power = ref.spectra[tag].power
            assert spectrum.resolution == ref.spectra[tag].resolution
            if sc.mode == "space_down_conversion":
                rounded = tag == "output"
            else:
                rounded = sc.noise_psd == 0.0
            if rounded:
                assert np.max(np.abs(spectrum.power - want_power)) <= (
                    oracles.SDC_RTOL * np.max(want_power))
            else:
                assert np.array_equal(spectrum.power, want_power)
        assert np.array_equal(report.sent_words, ref.sent_words)
        assert np.array_equal(report.points, ref.points)
        assert np.array_equal(report.ber, ref.ber)
        if ref.channel_estimate is None:
            assert report.channel_estimate is None
            continue
        h, x = ref.channel_estimate, ref.detected_symbols
        streams, points = h.T.shape
        cond, norm, X = ref.condition_number, np.linalg.norm(h, 2), np.max(np.abs(x))
        reference = ref.points[ref.sent_words]
        peak = norm * np.sqrt(streams) * np.max(np.abs(reference))
        t = sps * EPS * (peak + 6 * np.sqrt(sc.noise_psd))
        tol_x = 4 * cond / norm * np.sqrt(points) * t * (1 + streams * X)
        assert np.max(np.abs(report.detected_symbols - x)) <= tol_x
        assert np.max(np.abs(report.channel_estimate - h)) <= t
        assert abs(report.condition_number - cond) <= 2 * cond * np.sqrt(
            streams * points) * t / norm
        ref_rms = np.sqrt(np.mean(np.abs(reference) ** 2, axis=1))
        assert np.all(np.abs(report.evm_percent - ref.evm_percent)
                      <= 100 * tol_x / ref_rms)
        key_summary = got.summary["reports"][key]
        assert key_summary["ber"] == want.summary["reports"][key]["ber"]
        assert key_summary["streams"] == want.summary["reports"][key]["streams"]


# receive-phase ramps: at samples_per_symbol 40 control steps a symbol,
# L = 20 starts every symbol on the ramp's first step; L = 7 with oversample
# 3 (a 21-sample period) starts the symbols on each of its 7 steps in turn,
# in both directions; a period of 7e-8 s stretched by 3e-10, which validate
# accepts, is no whole number of samples, and the derotation still runs at
# the ramp's line; L = 2 at one sample per symbol alternates the ramp's sign
CLASS_CASES = {
    "bundled": {},
    "L7-os3-down": {"staircase.steps_per_period": 7, "staircase.period_s": 7e-8,
                    "oversample": 3},
    "L7-os3-up": {"staircase.steps_per_period": 7, "staircase.period_s": 7e-8,
                  "oversample": 3, "staircase.direction": "up"},
    "no-whole-period": {"staircase.steps_per_period": 7,
                        "staircase.period_s": 7e-8 * (1 + 3e-10), "oversample": 3},
    "two-steps": {"staircase.steps_per_period": 2, "staircase.period_s": 2e-8,
                  "oversample": 1, "frame.symbol_rate_baud": 1e8,
                  "frame.samples_per_symbol": 1},
}


def receive_phase_means(overrides: dict) -> tuple:
    """simulate(integrated_switch) with overrides, spying on txrx.detect:
    (sc, the receive phase's means, its sent symbols, its back channels)."""
    sc = scen.Scenario.from_dict(bundled("integrated_switch", overrides))
    seen = []
    detect = txrx.detect

    def spy(means, *args):
        seen.append(means.copy())
        return detect(means, *args)

    txrx.detect = spy
    try:
        scen.simulate(sc)
    finally:
        txrx.detect = detect
    words = scen._payload(sc, 1, scen._rng(sc, 1))
    sent = np.concatenate([txrx.make_pilots(1)[0], sc.scheme.points[words[0]]])
    feed = sc.points.indices_with_role("feed")[0]
    back = propagation.build_channels(sc.geometry, core.PointSet(
        sc.points.positions[[1, feed]], ("feed", "rx")), sc.channel)
    return sc, seen[1], sent, back


@pytest.mark.parametrize("overrides", CLASS_CASES.values(), ids=CLASS_CASES.keys())
def test_receive_phase_means_match_the_phase_exact_samples(overrides):
    # each closed-form mean against the mean of the frame's written,
    # derotated samples: within sps EPS of the largest sample (see
    # assert_close_result), at the first and at the last symbols
    sc, means, sent, back = receive_phase_means(overrides)
    sps = sc.samples_per_symbol * sc.oversample
    for first in (0, len(sent) - 60):
        want = oracles.phase_exact_means(sc, sent, back, first, first + 60)
        peak = np.max(np.abs(back.feed_gains)) * np.sum(np.abs(back.obs_gains))
        assert np.max(np.abs(means[:, first:first + 60] - want)) <= sps * EPS * peak


def test_the_last_means_of_a_long_frame_keep_their_precision():
    # at 10^5 payload symbols the last sample index is about 6.4 x 10^7, and
    # a phase taken from it before exp drifted 5.0e-11 from the exact one;
    # each phase now drops its whole turns exactly, so no error grows
    sc, means, sent, back = receive_phase_means({"frame.payload_symbols": 100000})
    last = len(sent) - 50
    want = oracles.phase_exact_means(sc, sent, back, last, len(sent))
    assert np.max(np.abs(means[:, last:] - want)) / np.max(np.abs(want)) < 1e-14


@pytest.mark.parametrize("direction", ["down", "up"])
@pytest.mark.parametrize("oversample", [1, 2, 3, 16])
@pytest.mark.parametrize("L", [2, 3, 7, 20])
def test_receive_phase_means_carry_the_ramps_conversion_gain(L, oversample, direction):
    # step m of the ramp is a exp(2j pi d m / L), and sample i of a step is
    # derotated by exp(-2j pi d (m oversample + i) / (L oversample)), so the
    # step's phase cancels and each mean is sent times the surface's gain
    # sum feed obs, the amplitude a and the mean over i of the sample
    # rotations, a Dirichlet kernel:
    # sin(pi / L) / (os sin(pi / (L os))) exp(-j pi d (os - 1) / (L os))
    sc, means, sent, back = receive_phase_means({
        "staircase.steps_per_period": L, "staircase.period_s": L * 1e-8,
        "oversample": oversample, "staircase.direction": direction,
        "staircase.amplitude": 0.8})
    d, os_ = sc.staircase.direction, oversample
    gain = np.sum(back.feed_gains[:, np.newaxis] * back.obs_gains, axis=0)
    rho = (np.sin(np.pi / L) / (os_ * np.sin(np.pi / (L * os_)))
           * np.exp(-1j * np.pi * d * (os_ - 1) / (L * os_)))
    ratio = means / (sent * gain[:, np.newaxis] * 0.8)
    assert np.max(np.abs(ratio - rho)) <= 1e-14 * abs(rho)


@pytest.mark.parametrize("overrides", [
    {"staircase.steps_per_period": 7, "staircase.period_s": 7e-8 * (1 + 3e-10),
     "oversample": 3},
    {"staircase.steps_per_period": 13, "staircase.period_s": 13e-8 * (1 - 2e-10),
     "oversample": 2, "frame.payload_symbols": 20000},
], ids=["L7-longer", "L13-shorter"])
def test_a_period_off_the_sample_grid_derotates_at_the_ramps_fundamental(overrides):
    # the ramp's L values take one control step each, whatever period_s
    # rounds to; derotating at 1 / period_s left 3.2e-4 % and 4.5e-3 % EVM
    sc = scen.Scenario.from_dict(bundled("integrated_switch", overrides))
    result = scen.simulate(sc)
    assert result.reports["receive"].evm_percent[0] < 1e-10
    assert result.summary["expected_line_hz"] == -sc.control_rate_hz / (
        sc.staircase.steps_per_period)


@pytest.mark.parametrize("kind", ["identity", "free_space"])
def test_the_receive_phase_reads_the_transmit_channels_backwards(kind, monkeypatch):
    # bit for bit the channels of the sender lighting the surface and the
    # feed antenna observing it
    sc = scen.Scenario.from_dict(bundled("integrated_switch", {
        **SHRUNK["integrated_switch"], "channel.kind": kind}))
    # simulate folds the link phase's gains first, the receive phase's last
    seen, fold = [], propagation.stream_gains
    monkeypatch.setattr(propagation, "stream_gains", lambda streams, count, channels: (
        seen.append(channels) or fold(streams, count, channels)))
    scen.simulate(sc)
    feed = sc.points.indices_with_role("feed")[0]
    sender = next(i for i in range(len(sc.points)) if i != feed)
    want = propagation.build_channels(sc.geometry, core.PointSet(
        sc.points.positions[[sender, feed]], ("feed", "rx")), sc.channel)
    assert len(seen) == 2
    got = seen[-1]
    for name in ("feed_gains", "obs_gains"):
        assert getattr(got, name).shape == getattr(want, name).shape
        assert np.ascontiguousarray(getattr(got, name)).tobytes() == \
            getattr(want, name).tobytes()


@pytest.mark.parametrize("num, den, count", [
    (0, 1, 5), (1, 1, 3), (-1, 7, 30), (1, 7, 3), (3, 12, 40), (-40, 320, 700),
    (120, 21, 100), (-5, 2, 1), (7, 13, 0), (1, 1 << 40, 9)])
def test_rotation_equals_the_python_integer_oracle(num, den, count):
    got = scen._rotation(num, den, count)
    want = oracles.exact_rotation(np.arange(count), Fraction(num, den))
    assert got.shape == (count,) and np.array_equal(got, want)


def traced_rotation(num: int, den: int, count: int) -> tuple:
    """scen._rotation(num, den, count) and its tracemalloc peak."""
    tracemalloc.start()
    try:
        got = scen._rotation(num, den, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak


def test_a_one_value_rotation_is_a_view_of_it():
    # a link frame's derotation is all ones: an index and a gather of 10^6
    # values read 22.89 MiB traced
    got, peak = traced_rotation(0, 1, 10 ** 6)
    assert got.shape == (10 ** 6,) and not got.flags.writeable
    assert np.all(got == 1.0)
    assert peak < 4096, f"peak {peak} bytes"


def test_a_cyclic_rotation_is_one_copy_of_its_values():
    # a period of 7 repeated over 10^6 values holds those values only (the
    # int64 index beside them read 22.89 MiB traced)
    count = 10 ** 6
    got, peak = traced_rotation(1, 7, count)
    assert np.array_equal(got, oracles.exact_rotation(np.arange(count), Fraction(1, 7)))
    assert peak <= 16 * count + 4096, f"peak {peak / 2 ** 20:.2f} MiB"


def test_a_rotation_beyond_the_int64_bound_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="too long to derotate"):
        scen._rotation(3, 1 << 62, 10)


@pytest.mark.parametrize("steps, oversample, periods", [
    (20, 2, 2), (20, 64, 10), (7, 1, 1), (2, 3, 5), (8, 17, 1)])
def test_the_feed_tone_spectrum_is_one_line_at_zero_hz(steps, oversample, periods):
    # a unit tone puts power 1 in the 0 Hz bin and none elsewhere; the fast
    # transform of the tone left rounding residue at 7 and 136 samples
    sc = scen.Scenario.from_dict(bundled("sdc_5mhz", {
        "staircase.steps_per_period": steps, "staircase.period_s": steps / 1e8,
        "oversample": oversample, "sdc_periods": periods}))
    spectrum = scen.simulate(sc).reports["link"].spectra["input"]
    n = steps * oversample * periods
    assert spectrum.resolution == sc.envelope_rate() / n
    assert spectrum.power.tolist() == [float(f == 0.0) for f in spectrum.frequencies]
