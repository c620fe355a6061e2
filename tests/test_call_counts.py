"""The calls into metalink's own functions during one simulate do not grow
with the run's size: its frame length, cell count, spectrum length or
ramp periods.

A per-symbol or per-cell Python loop shows here as a count that grows with
the frame or the surface, where a timing would need many runs to show it.
Only calls into functions of src/metalink are counted, which keeps the
counts mostly independent of numpy's internals; the tests pin their
equality across sizes, not their values.
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
], ids=["sdc_cells", "link_symbols", "noisy_link_symbols", "integrated_symbols",
        "noisy_link_spectrum_bins", "sdc_periods"])
def test_the_calls_into_metalink_do_not_depend_on_size(name, small, large):
    assert metalink_calls(name, small) == metalink_calls(name, large) > 0
