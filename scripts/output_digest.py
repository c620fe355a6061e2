#!/usr/bin/env python3
"""Print one SHA-256 digest of the artifacts of each reference run.

Two checkouts that print the same lines write the same artifacts, bit for
bit, on these runs:

  - each bundled scenario, noiseless and at channel.noise_psd=0.01;
  - mimo2x2_16qam at frame.payload_symbols=100000, noiseless and at
    channel.noise_psd=1e-3: both take their means from the held
    coefficients, and the noisy one draws per-sample noise over its
    65 536-sample spectrum head and one value per other symbol mean;
  - the same noisy frame as QPSK on an 8-level phase grid: the only
    quantized reference run, at BER 0 and EVM about 0.5 %;
  - mimo2x2_16qam as 8PSK at frame.payload_symbols=50000 and
    channel.noise_psd=1.0: a BER of a few 1e-4, so doubtful symbols are
    demapped and scored;
  - um_mimo64: 64 QPSK streams on 2 x 2-cell blocks of a 16 x 16 surface,
    fed from 2 m, each received at its own point of an 8 x 8 grid of
    0.07 m pitch 0.15 m above the surface, free space, noiseless;
  - sdc_5mhz with three observation points at channel.noise_psd=0.01: the
    first point's per-sample noise is the only noise it reads;
  - integrated_switch at spectrum_bins=null and channel.noise_psd=1e-7: the
    receive phase's spectrum head covers its whole frame, so per-sample
    noise reaches every symbol mean of that phase;
  - integrated_switch at channel.noise_psd=1e-7, where it decodes (at 0.01
    both phases see only noise), and again at frame.payload_symbols=100000,
    where each phase's spectrum head is a small part of its frame: every
    frame takes its symbol means in closed form, the first point adds
    per-sample noise over the head, and one draw of noise goes to every
    other mean at each point;
  - integrated_switch with ramp periods that are no whole number of
    samples: L = 7 at oversample 3 with its period a little longer, and
    L = 13 at oversample 2 over 20 000 payload symbols with its period a
    little shorter; each derotates at the ramp's own line;
  - integrated_switch's up-ramp at L = 7, oversample 3 and
    channel.noise_psd=1e-7: the receive phase takes every mean as the sent
    symbol times one gain per point, with the head's noise derotated at the
    ramp's line over a 21-sample period;
  - sdc_5mhz at L = 7 samples a period: its input spectrum is the closed
    form, not an FFT;
  - sdc_5mhz's up-ramp at amplitude 0.8, oversample 1 and
    channel.noise_psd=0.01: each value of its one-period envelope is held
    for one sample;
  - sdc_5mhz over 37 periods, noiseless and at channel.noise_psd=0.01: the
    output comes from one period's DFT; noiseless, its power on every 37th
    bin and exactly 0 elsewhere; noisy, 37 times it added to every 37th bin
    of the noise's DFT, a scaling that rounds at an odd period count;
  - the param_sweep cases of bench/workloads.py for seeds 1 to 10, one line
    per seed covering its 136 cases in order.

A digest covers every file a run writes, by name and content. metalink is
imported from src/ of the checkout that holds this script.
tests/reference_digests.json holds these lines and a list of environments:
each an environment() on which this script printed every line.
tests/test_reference_digests.py compares the lines bit for bit where the
current environment is on that list, and skips the comparison elsewhere.

The same runs also give a tolerance-level reference, which holds on any
platform: values() maps each run's label to its record, the numbers of
every summary.json and a few moments of every .npy table, in named groups
(record()). tests/reference_values.json holds these records, and
tests/test_reference_digests.py compares them within RTOL of each group's
scale (within_tolerance()).

Usage, from anywhere:
    python scripts/output_digest.py            # the digest lines
    python scripts/output_digest.py --values   # the records, as JSON
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import metalink as ml  # noqa: E402
from metalink import artifacts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SWEEP_SEEDS = range(1, 11)
VALUE_SEEDS = (1,)  # the sweep seeds whose cases the records cover
# um_mimo64, as overrides of mimo2x2_16qam
UM_MIMO64 = {
    "geometry.rows": 16, "geometry.cols": 16, "modulation": "QPSK",
    "points": [{"position_m": [0.0, 0.0, 2.0], "role": "feed"}] + [
        {"position_m": [(i - 3.5) * 0.07, (j - 3.5) * 0.07, 0.15], "role": "rx"}
        for j in range(8) for i in range(8)],
    "channel": {"kind": "free_space", "noise_psd": 0.0},
    "partition": [(n // 2) * 8 + m // 2 for n in range(16) for m in range(16)],
}
# mimo2x2_16qam as a quantized QPSK frame, as overrides
QPSK_PHASE8 = {"modulation": "QPSK", "quantization.phase_levels": 8,
               "frame.payload_symbols": 100000, "channel.noise_psd": 1e-3}
# mimo2x2_16qam as a noisy 8PSK frame with doubtful symbols, as overrides
PSK8_NOISY = {"modulation": "8PSK", "frame.payload_symbols": 50000,
              "channel.noise_psd": 1.0}
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
    yield ("mimo2x2_16qam QPSK phase_levels=8 payload_symbols=100000 noise_psd=1e-3",
           "mimo2x2_16qam", QPSK_PHASE8)
    yield ("mimo2x2_16qam 8PSK payload_symbols=50000 noise_psd=1.0", "mimo2x2_16qam",
           PSK8_NOISY)
    yield "um_mimo64", "mimo2x2_16qam", UM_MIMO64
    yield "sdc_5mhz three points noise_psd=0.01", "sdc_5mhz", SDC_THREE_POINTS
    yield ("integrated_switch spectrum_bins=null noise_psd=1e-7", "integrated_switch",
           {"spectrum_bins": None, "channel.noise_psd": 1e-7})
    yield ("integrated_switch noise_psd=1e-7", "integrated_switch",
           {"channel.noise_psd": 1e-7})
    yield ("integrated_switch payload_symbols=100000 noise_psd=1e-7", "integrated_switch",
           {"frame.payload_symbols": 100000, "channel.noise_psd": 1e-7})
    yield ("integrated_switch steps_per_period=7 period_s=7.0000000021e-08 oversample=3",
           "integrated_switch", {"staircase.steps_per_period": 7,
                                 "staircase.period_s": 7.0000000021e-08, "oversample": 3})
    yield ("integrated_switch steps_per_period=13 period_s=1.29999999974e-07 oversample=2 "
           "payload_symbols=20000", "integrated_switch",
           {"staircase.steps_per_period": 13, "staircase.period_s": 1.29999999974e-07,
            "oversample": 2, "frame.payload_symbols": 20000})
    yield ("integrated_switch up steps_per_period=7 period_s=7e-08 oversample=3 "
           "noise_psd=1e-7", "integrated_switch",
           {"staircase.steps_per_period": 7, "staircase.period_s": 7e-08, "oversample": 3,
            "staircase.direction": "up", "channel.noise_psd": 1e-7})
    yield ("sdc_5mhz steps_per_period=7 period_s=7e-08", "sdc_5mhz",
           {"staircase.steps_per_period": 7, "staircase.period_s": 7e-08})
    yield ("sdc_5mhz up amplitude=0.8 oversample=1 noise_psd=0.01", "sdc_5mhz",
           {"oversample": 1, "staircase.direction": "up", "staircase.amplitude": 0.8,
            "channel.noise_psd": 0.01})
    yield "sdc_5mhz sdc_periods=37", "sdc_5mhz", {"sdc_periods": 37}
    yield ("sdc_5mhz sdc_periods=37 noise_psd=0.01", "sdc_5mhz",
           {"sdc_periods": 37, "channel.noise_psd": 0.01})


def _add_dir(digest, out_dir: Path) -> None:
    """Feed every file under out_dir, by relative name and content, into digest."""
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())


# Tolerance level: a float x matches its recorded r when
# |x - r| <= RTOL * max(the largest |r| of its group, FLOOR of its group).
# 1e-9 is far above the rounding of any output (about 1e-16 relative, and a
# few hundred times that after detection) and far below any modelling change.
# A group whose values are rounding noise in a noiseless run takes the
# natural unit of its quantity as a floor: constellation coordinates are
# peak-normalized to 1, EVM is in percent of the reference RMS, and BER is
# a share of 1.
RTOL = 1e-9
FLOOR = {"i": 1.0, "q": 1.0, "ref_i": 1.0, "ref_q": 1.0, "evm_percent": 100.0,
         "ber": 1.0}


def _leaves(value, path: str, out: dict) -> None:
    """Add every scalar of a JSON value to out, grouped by its key path with
    the list indices removed; a channel estimate is summarized by its RMS
    magnitude and its mean real and imaginary parts."""
    if isinstance(value, dict):
        for key, v in sorted(value.items()):
            if key == "channel_estimate":
                h = np.asarray(v, dtype=float)
                h = h[..., 0] + 1j * h[..., 1]
                out[f"{path}{key}"] = [float(np.sqrt(np.mean(np.abs(h) ** 2))),
                                       float(h.real.mean()), float(h.imag.mean())]
            else:
                _leaves(v, f"{path}{key}.", out)
    elif isinstance(value, list):
        for v in value:
            _leaves(v, path, out)
    else:
        out.setdefault(path.rstrip("."), []).append(value)


def _table_moments(table: np.ndarray) -> dict:
    """The row count of an artifact table and a few moments of its float
    columns: mean and RMS of a constellation column; the sum and the peak of
    the spectrum's power; its first and last bin and its power-weighted mean
    frequency. power_db is 10 log10 of the power, and symbol_index counts
    the rows."""
    out = {"rows": [len(table)]}
    for column in table.dtype.names:
        x = table[column]
        if column == "power_linear":
            out[column] = [float(x.sum()), float(x.max())]
        elif column == "freq_hz":
            power = table["power_linear"]
            out[column] = [float(x[0]), float(x[-1]),
                           float(np.sum(x * power) / power.sum())]
        elif column not in ("symbol_index", "power_db"):
            out[column] = [float(x.mean()), float(np.sqrt(np.mean(x * x)))]
    return out


def record(out_dir: Path) -> dict:
    """{file: {group: [values]}} for every file under out_dir, by relative
    path: the numbers of a summary.json, grouped by key path, and the
    moments of a .npy table, grouped by column."""
    out = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix()
        if path.suffix == ".json":
            out[name] = {}
            _leaves(json.loads(path.read_text()), "", out[name])
        else:
            out[name] = _table_moments(np.load(path, allow_pickle=False))
    return out


def within_tolerance(got: dict, want: dict) -> list:
    """Where two records of a run differ beyond the tolerance level, one
    message per file or group; strings and integers must be equal."""
    errors = [f"{f}: missing" for f in want if f not in got]
    errors += [f"{f}: not recorded" for f in got if f not in want]
    for name in sorted(want.keys() & got.keys()):
        for group in sorted(want[name].keys() | got[name].keys()):
            x, r = got[name].get(group), want[name].get(group)
            if x is None or r is None or len(x) != len(r):
                errors.append(f"{name} {group}: {x} against the recorded {r}")
                continue
            floor = FLOOR.get(group.rpartition(".")[2], 0.0)
            scale = max([abs(v) for v in r if isinstance(v, float)] + [floor])
            if not all(abs(a - b) <= RTOL * scale
                       if isinstance(b, float) and isinstance(a, (int, float))
                       else type(a) is type(b) and a == b for a, b in zip(x, r)):
                errors.append(f"{name} {group}: {x} against the recorded {r}")
    return errors


def environment() -> dict:
    """The numpy build and CPU on which the digests' bits depend."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine(), "simd_baseline": simd["baseline"],
            "simd_found": simd["found"]}


def references():
    """Yield (label, "<sha256>  <label>" line, record) per reference run, in
    order; the record is None for a sweep seed outside VALUE_SEEDS."""
    sweep = WORKLOADS["param_sweep"]
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(label, name, overrides, Path(tmp, f"bundled-{index}"))
                for index, (label, name, overrides) in enumerate(_bundled_runs())]
        runs += [(f"param_sweep seed {seed}", None, seed, Path(tmp, f"param_sweep-{seed}"))
                 for seed in SWEEP_SEEDS]
        for label, name, how, out_dir in runs:
            if name is None:  # how is the sweep's seed
                for index, case in enumerate(sweep.build(ml, how)):
                    result = sweep.run(ml, case, None)
                    artifacts.write_artifacts(result, out_dir / f"{index:03d}")
            else:
                ml.run_scenario(name, out_dir, overrides=how)
            digest = hashlib.sha256()
            _add_dir(digest, out_dir)
            keep = name is not None or how in VALUE_SEEDS
            yield label, f"{digest.hexdigest()}  {label}", record(out_dir) if keep else None


def digest_lines():
    """Yield one "<sha256>  <label>" line per reference run, in order."""
    for _, line, _ in references():
        yield line


def values() -> dict:
    """Each reference run's label and its record."""
    return {label: rec for label, _, rec in references() if rec is not None}


def values_json(runs: dict) -> str:
    """The records as JSON, with RTOL and FLOOR, one line per file of a run."""
    files = ",\n".join(
        f'  {json.dumps(label)}: {{\n' + ",\n".join(
            f'   {json.dumps(name)}: {json.dumps(groups, sort_keys=True)}'
            for name, groups in rec.items()) + "\n  }"
        for label, rec in runs.items())
    return (f'{{\n "rtol": {json.dumps(RTOL)},\n "floor": {json.dumps(FLOOR)},\n'
            f' "runs": {{\n{files}\n }}\n}}\n')


def main() -> None:
    if sys.argv[1:] == ["--values"]:
        print(values_json(values()), end="")
        return
    for line in digest_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
