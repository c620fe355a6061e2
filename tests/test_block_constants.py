"""Outputs do not depend on the block constants. BLOCK (noise draws and
table writes), txrx.DEMAP_BLOCK (detection) and artifacts.CSV_BLOCK_ROWS
(CSV export) only bound memory, so a run written with them set to small
primes, to middling values or to values past every run's size writes the
same bytes, CSV included, as the same run with the shipped values.

Each constant is patched where it is read: a module that imports a name
binds its own copy, so every module that holds one is patched.

Left out: BLOCK >= 2 * sps with sps above 8 192 samples a symbol. There a
noise block holds several symbols, and the einsum that sums each symbol's
derotated noise rounds a long row differently by the block's row count.
None of the values below reaches that case.
"""

import functools

import pytest

from metalink import artifacts, core, scenario, txrx

KNOBS = ("BLOCK", "DEMAP_BLOCK", "CSV_BLOCK_ROWS")
SETTINGS = [(7, 5, 3), (1000, 97, 11), (65521, 4099, 4093)]
RUNS = {
    # 17 000 noisy head samples: 425 symbols of noise, in two blocks at the
    # shipped BLOCK (409 symbols a block) and in 425 at BLOCK = 7
    "link_head": ("mimo2x2_16qam", {"frame.payload_symbols": 500, "spectrum_bins": 17000,
                                    "channel.noise_psd": 1e-3}),
    # errors to demap and count
    "8psk_doubtful": ("mimo2x2_16qam", {"modulation": "8PSK", "frame.payload_symbols": 500,
                                        "spectrum_bins": 1024, "channel.noise_psd": 1.0}),
    "integrated": ("integrated_switch", {"frame.payload_symbols": 300,
                                         "spectrum_bins": 4096, "channel.noise_psd": 1e-3}),
    "sdc": ("sdc_5mhz", {"oversample": 16, "sdc_periods": 3, "channel.noise_psd": 1e-2}),
    # 40 000 samples a symbol: one symbol a noise block at every setting
    "link_oversample": ("mimo2x2_16qam", {"oversample": 1000, "frame.payload_symbols": 16,
                                          "spectrum_bins": 4096,
                                          "channel.noise_psd": 1e-3}),
    "integrated_oversample": ("integrated_switch", {
        "oversample": 1000, "frame.payload_symbols": 16, "spectrum_bins": 4096,
        "channel.noise_psd": 1e-3}),
}


def bindings() -> set:
    """(module, name) of every block constant a module binds."""
    return {(module, name) for module in (core, scenario, txrx, artifacts)
            for name in KNOBS if name in vars(module)}


def test_the_patched_names_are_every_binding_of_the_block_constants():
    assert bindings() == {
        (core, "BLOCK"), (scenario, "BLOCK"), (artifacts, "BLOCK"),
        (txrx, "DEMAP_BLOCK"), (artifacts, "CSV_BLOCK_ROWS")}


def written(out_dir, run: str) -> dict:
    """The bytes of every file that run writes, its .npy tables exported
    to CSV beside them, by file name."""
    name, overrides = RUNS[run]
    result = scenario.run_scenario(name, out_dir, overrides=overrides)
    artifacts.export_csv(out_dir)
    if run == "8psk_doubtful":
        assert result.reports["link"].ber.max() > 0.0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@functools.cache
def shipped(run: str, scratch) -> dict:
    return written(scratch / f"shipped_{run}", run)


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: "-".join(map(str, s)))
def test_outputs_do_not_depend_on_the_block_constants(setting, run, tmp_path,
                                                     tmp_path_factory, monkeypatch):
    want = shipped(run, tmp_path_factory.getbasetemp())
    for module, name in bindings():
        monkeypatch.setattr(module, name, setting[KNOBS.index(name)])
    assert written(tmp_path, run) == want
