"""The ultra-massive MIMO regime of the RF chain-free transmitter: 64
streams from one surface, each received at its own point.

The geometry is a near-field scale test, not a deployment: a 16 x 16
surface of half-wave cells split into 2 x 2-cell streams, lit by a feed
2 m above it, and an 8 x 8 grid of receivers 0.15 m above the surface at
0.07 m pitch, so each receiver sits over its own stream's block.
"""

import tracemalloc

import numpy as np

from metalink import scenario as scen

ROWS = COLS = 16
GRID = 8  # receivers per side, one per 2 x 2-cell block
PITCH_M = 0.07


def um_mimo64() -> dict:
    data = scen.load_scenario("mimo2x2_16qam")
    data.update(
        name="um_mimo64", modulation="QPSK",
        points=[{"position_m": [0.0, 0.0, 2.0], "role": "feed"}] + [
            {"position_m": [(i - (GRID - 1) / 2) * PITCH_M,
                            (j - (GRID - 1) / 2) * PITCH_M, 0.15], "role": "rx"}
            for j in range(GRID) for i in range(GRID)],
        channel={"kind": "free_space", "noise_psd": 0.0},
        partition=[(n // 2) * GRID + m // 2 for n in range(ROWS) for m in range(COLS)])
    data["geometry"].update(rows=ROWS, cols=COLS)
    data["frame"]["payload_symbols"] = 10000
    return data


def test_64_streams_decode_cleanly_in_bounded_memory():
    sc = scen.Scenario.from_dict(um_mimo64())
    tracemalloc.start()
    try:
        report = scen.simulate(sc).reports["link"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.num_streams == 64
    assert np.all(report.ber == 0.0)
    assert np.all(report.evm_percent < 0.1)
    assert report.condition_number < 100.0
    # a (points x block) buffer alone would be 64 MiB at 64 points
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
