"""The calls into metalink's own functions during one simulate do not grow
with the run's size: its frame length, cell count, spectrum length, ramp
periods or oversampling. Each observation point and each stream adds at
most one call.

A per-symbol or per-cell Python loop shows here as a count that grows with
the frame or the surface, where a timing would need many runs to show it.
Only calls into functions of src/metalink are counted, which keeps the
counts mostly independent of numpy's internals; the tests pin their
equality across sizes, or their growth with points and streams, not their
values.
"""

import os
import sys

import pytest

import metalink
from metalink import scenario as scen

PACKAGE = os.path.dirname(metalink.__file__) + os.sep


def metalink_calls(name: str, overrides: dict) -> int:
    """The calls into functions of src/metalink, generator resumptions
    included, during one warm simulate of bundled scenario name with
    overrides."""
    sc = scen.Scenario.from_dict(scen.apply_overrides(scen.load_scenario(name), overrides))
    scen.simulate(sc)  # the shape tables are built on the first run
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(count)
    try:
        scen.simulate(sc)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("name, small, large", [
    ("sdc_5mhz", {"geometry.rows": 16, "geometry.cols": 16},
     {"geometry.rows": 64, "geometry.cols": 64}),
    ("mimo2x2_16qam", {"frame.payload_symbols": 10 ** 3},
     {"frame.payload_symbols": 10 ** 4}),
    ("mimo2x2_16qam", {"frame.payload_symbols": 10 ** 3, "channel.noise_psd": 1e-3},
     {"frame.payload_symbols": 10 ** 5, "channel.noise_psd": 1e-3}),
    ("integrated_switch", {"frame.payload_symbols": 10 ** 3},
     {"frame.payload_symbols": 10 ** 4}),
    # a 4 096-sample head is one block of noise; the whole 400 320-sample
    # head is drawn and added in seven
    ("mimo2x2_16qam", {"spectrum_bins": 4096, "channel.noise_psd": 1e-3},
     {"spectrum_bins": None, "channel.noise_psd": 1e-3}),
    ("sdc_5mhz", {"sdc_periods": 10}, {"sdc_periods": 1000}),
    ("sdc_5mhz", {"oversample": 16}, {"oversample": 256}),
    ("mimo2x2_16qam", {"oversample": 1}, {"oversample": 8}),
    ("integrated_switch", {"oversample": 2}, {"oversample": 16}),
], ids=["sdc_cells", "link_symbols", "noisy_link_symbols", "integrated_symbols",
        "noisy_link_spectrum_bins", "sdc_periods", "sdc_oversample", "link_oversample",
        "integrated_oversample"])
def test_the_calls_into_metalink_do_not_depend_on_size(name, small, large):
    assert metalink_calls(name, small) == metalink_calls(name, large) > 0


FREE_SPACE = {"channel.kind": "free_space", "channel.matrix": None}


def _points(observers: int) -> list:
    """The feed, then observers rx points spread over 1 m, 1 m above the surface."""
    return [{"position_m": [0.0, 0.0, 0.5], "role": "feed"}] + [
        {"position_m": [-0.5 + i / (observers - 1), 0.1 * i, 1.0], "role": "rx"}
        for i in range(observers)]


@pytest.mark.parametrize("small, large, added", [
    # _summarize writes one channel-estimate row per point
    ({**FREE_SPACE, "points": _points(2)}, {**FREE_SPACE, "points": _points(8)}, 6),
    # a noisy frame demaps each stream once
    ({**FREE_SPACE, "points": _points(4), "partition": "full", "channel.noise_psd": 1e-3},
     {**FREE_SPACE, "points": _points(4), "partition": [c % 4 for c in range(16)],
      "channel.noise_psd": 1e-3}, 3),
], ids=["link_points", "noisy_link_streams"])
def test_each_point_and_each_stream_adds_at_most_one_call(small, large, added):
    few = metalink_calls("mimo2x2_16qam", small)
    assert 0 < few <= metalink_calls("mimo2x2_16qam", large) <= few + added
