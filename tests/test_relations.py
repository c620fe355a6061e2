"""Metamorphic relations: pairs of runs whose outputs must agree, so that
neither needs an oracle. Each pair spells one input two ways, or moves an
input that the outputs must not read. A pair is held to the bytes it writes
where the relation is exact, and to a stated bound where it holds only to
rounding. The runs are the bundled scenarios with short payloads.
"""

import numpy as np
import pytest

from metalink import scenario as scen

SHORT = {"mimo2x2_16qam": {"frame.payload_symbols": 64},
         "integrated_switch": {"frame.payload_symbols": 64}}


def written(tmp_path, name: str, overrides: dict) -> dict:
    """The bytes of every artifact that run_scenario writes for bundled
    scenario name with overrides, by file name, summary.json included."""
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    scen.run_scenario(name, out, overrides={**SHORT.get(name, {}), **overrides})
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("noise_psd", [0.0, 1e-3])
def test_left_right_and_its_per_cell_list_write_the_same_bytes(noise_psd, tmp_path):
    # stream 1 on the right half of each row's columns, cells row-major
    data = scen.load_scenario("mimo2x2_16qam")
    rows, cols = data["geometry"]["rows"], data["geometry"]["cols"]
    listed = [int(c % cols >= cols // 2) for c in range(rows * cols)]
    assert data["partition"] == "left_right" and 0 < sum(listed) < rows * cols
    named = written(tmp_path, "mimo2x2_16qam", {"channel.noise_psd": noise_psd})
    assert written(tmp_path, "mimo2x2_16qam", {
        "channel.noise_psd": noise_psd, "partition": listed}) == named


def test_an_identity_channel_and_an_all_ones_matrix_write_the_same_bytes(tmp_path):
    # one stream: two streams over equal gains could not be told apart
    data = scen.load_scenario("mimo2x2_16qam")
    cells = data["geometry"]["rows"] * data["geometry"]["cols"]
    observers = sum(p["role"] != "feed" for p in data["points"])
    common = {"partition": "full", "channel.noise_psd": 1e-3}
    identity = written(tmp_path, "mimo2x2_16qam", {
        **common, "channel.kind": "identity", "channel.matrix": None})
    assert written(tmp_path, "mimo2x2_16qam", {
        **common, "channel.kind": "explicit_matrix",
        "channel.matrix": [[[1.0, 0.0]] * observers] * cells}) == identity


@pytest.mark.parametrize("name, overrides", [
    ("mimo2x2_16qam", {}), ("integrated_switch", {"channel.noise_psd": 1e-7})])
def test_no_cap_and_a_cap_past_the_frame_write_the_same_bytes(name, overrides, tmp_path):
    uncapped = written(tmp_path, name, {**overrides, "spectrum_bins": None})
    assert written(tmp_path, name, {**overrides, "spectrum_bins": 10 ** 9}) == uncapped


def test_the_up_ramps_output_mirrors_the_down_ramps_in_frequency():
    # bin k's mirror is bin -k; the Nyquist bin, the last, has none. The
    # ramps' steps are conjugate phases, rounded alike to within 1e-18 of
    # the peak power (6.6e-19 read)
    power = {}
    for direction in ("down", "up"):
        sc = scen.Scenario.from_dict(scen.apply_overrides(
            scen.load_scenario("sdc_5mhz"), {"staircase.direction": direction}))
        spectrum = scen.simulate(sc).reports["link"].spectra["output"]
        assert spectrum.first_bin == 1 - spectrum.num_bins // 2
        power[direction] = spectrum.power[:-1]
    down, up = power["down"], power["up"]
    assert len(up) == 51199
    assert np.abs(up - down[::-1]).max() <= 1e-18 * down.max()
