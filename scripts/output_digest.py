#!/usr/bin/env python3
"""Print one SHA-256 digest of the artifacts of each reference run.

Two checkouts that print the same lines write the same artifacts, bit for
bit, on these runs:

  - each bundled scenario, noiseless and at channel.noise_psd=0.01;
  - mimo2x2_16qam at frame.payload_symbols=100000, noiseless and at
    channel.noise_psd=1e-3: both take their means from the held
    coefficients, and the noisy one draws per-sample noise over its
    65 536-sample spectrum head and one value per other symbol mean;
  - um_mimo64: 64 QPSK streams on 2 x 2-cell blocks of a 16 x 16 surface,
    fed from 2 m, each received at its own point of an 8 x 8 grid of
    0.07 m pitch 0.15 m above the surface, free space, noiseless;
  - sdc_5mhz with three observation points at channel.noise_psd=0.01: the
    first point's per-sample noise is the only noise it reads;
  - integrated_switch at spectrum_bins=null and channel.noise_psd=1e-7: the
    receive phase's spectrum head covers its whole frame, so per-sample
    noise reaches every block of its block loop;
  - the param_sweep cases of bench/workloads.py for seeds 1 to 10, one line
    per seed covering its 136 cases in order.

A digest covers every file a run writes, by name and content. metalink is
imported from src/ of the checkout that holds this script.
tests/reference_digests.json holds these lines with the environment() they
were recorded in, and tests/test_reference_digests.py compares against them.

Usage, from anywhere:
    python scripts/output_digest.py
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import metalink as ml  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SWEEP_SEEDS = range(1, 11)
# um_mimo64, as overrides of mimo2x2_16qam
UM_MIMO64 = {
    "geometry.rows": 16, "geometry.cols": 16, "modulation": "QPSK",
    "points": [{"position_m": [0.0, 0.0, 2.0], "role": "feed"}] + [
        {"position_m": [(i - 3.5) * 0.07, (j - 3.5) * 0.07, 0.15], "role": "rx"}
        for j in range(8) for i in range(8)],
    "channel": {"kind": "free_space", "noise_psd": 0.0},
    "partition": [(n // 2) * 8 + m // 2 for n in range(16) for m in range(16)],
}
# sdc_5mhz with three observation points, as overrides
SDC_THREE_POINTS = {
    "points": [{"position_m": [0.0, 0.0, 0.5], "role": "feed"}] + [
        {"position_m": [x, 0.1, 0.6], "role": "rx"} for x in (0.3, -0.2, 0.1)],
    "channel.noise_psd": 0.01,
}


def _bundled_runs():
    for name in ml.bundled_scenario_names():
        yield name, name, {}
        yield f"{name} noise_psd=0.01", name, {"channel.noise_psd": 0.01}
    yield ("mimo2x2_16qam payload_symbols=100000 noise_psd=1e-3", "mimo2x2_16qam",
           {"frame.payload_symbols": 100000, "channel.noise_psd": 1e-3})
    yield ("mimo2x2_16qam payload_symbols=100000", "mimo2x2_16qam",
           {"frame.payload_symbols": 100000})
    yield "um_mimo64", "mimo2x2_16qam", UM_MIMO64
    yield "sdc_5mhz three points noise_psd=0.01", "sdc_5mhz", SDC_THREE_POINTS
    yield ("integrated_switch spectrum_bins=null noise_psd=1e-7", "integrated_switch",
           {"spectrum_bins": None, "channel.noise_psd": 1e-7})


def _add_dir(digest, out_dir: Path) -> None:
    """Feed every file under out_dir, by relative name and content, into digest."""
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())


def environment() -> dict:
    """The numpy build and CPU on which the digests' bits depend."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine(), "simd_baseline": simd["baseline"],
            "simd_found": simd["found"]}


def digest_lines():
    """Yield one "<sha256>  <label>" line per reference run, in order."""
    sweep = WORKLOADS["param_sweep"]
    with tempfile.TemporaryDirectory() as tmp:
        for index, (label, name, overrides) in enumerate(_bundled_runs()):
            out_dir = Path(tmp, f"bundled-{index}")
            ml.run_scenario(name, out_dir, overrides=overrides)
            digest = hashlib.sha256()
            _add_dir(digest, out_dir)
            yield f"{digest.hexdigest()}  {label}"
        for seed in SWEEP_SEEDS:
            out_dir = Path(tmp, f"param_sweep-{seed}")
            for index, case in enumerate(sweep.build(ml, seed)):
                result = sweep.run(ml, case, None)
                ml.scenario.write_artifacts(result, out_dir / f"{index:03d}")
            digest = hashlib.sha256()
            _add_dir(digest, out_dir)
            yield f"{digest.hexdigest()}  param_sweep seed {seed}"


def main() -> None:
    for line in digest_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
