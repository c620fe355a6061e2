"""The benchmark's workloads: seeded scenario inputs and their correctness gates.

Each workload turns a seed into a list of cases (scenario dicts plus what
the gate needs to know about them), runs one case through metalink's public
API, and checks the result. Inputs come only from the seed and the bundled
scenarios, so the same seed always gives the same inputs.

Why these three (sizes measured on a 2-core Xeon, numpy 2.4, OpenBLAS):

  sdc_wide     sdc_5mhz at 32x32 cells and oversample 64: 1 024 cells x
               12 800 samples through run_scenario. The per-cell
               O(cells x samples) surface pass dominates; artifact writing
               is a minor share.
  mimo_frame   mimo2x2_16qam unchanged: 2 x 10^4 16QAM symbols over 400 320
               samples through run_scenario. Writing the CSV artifacts
               dominates; the surface pass and receive chain are the rest.
  param_sweep  136 small scenarios over all three modes through the
               in-memory API, writing nothing. Fixed per-call costs
               dominate (validation, typed construction, seeding, noise),
               and it is the only workload that reaches the noise path and
               integrated mode.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

CONTROL_RATE_HZ = 1e8
CARRIER_HZ = 4.25e9
HALF_WAVELENGTH_M = 0.03526970094117647
SCHEMES = ("BPSK", "QPSK", "8PSK", "16QAM")
SEED_RANGE = 2 ** 31  # scenario rng_seed values are drawn below this


@dataclass
class Case:
    """One scenario run: the dict the program receives, plus gate facts."""

    data: dict
    overrides: dict = field(default_factory=dict)
    work: int = 0  # cells x envelope samples x observation points
    noiseless: bool = True


def sinc2(x: float) -> float:
    return (math.sin(x) / x) ** 2


def _frame_samples(ml, data: dict, streams: int) -> int:
    frame = data["frame"]
    pilots = ml.make_pilots(streams).shape[1]
    return ((pilots + frame["payload_symbols"]) * frame["samples_per_symbol"]
            * data.get("oversample", 16))


def case_work(ml, data: dict) -> int:
    """Simulated surface work of one scenario: cells x samples x points."""
    g = data["geometry"]
    cells = g["rows"] * g["cols"]
    observers = sum(1 for p in data["points"] if p["role"] != "feed")
    mode = data["mode"]
    if mode == "space_down_conversion":
        st = data["staircase"]
        steps = round(data["sdc_periods"] * st["period_s"] * data["control_rate_hz"])
        return cells * steps * data.get("oversample", 16) * observers
    streams = 2 if data["partition"] == "left_right" else 1
    work = cells * _frame_samples(ml, data, streams) * observers
    if mode == "integrated":  # receive phase: one stream into the feed antenna
        work += cells * _frame_samples(ml, data, 1)
    return work


# ---------------------------------------------------------------------------
# case builders
# ---------------------------------------------------------------------------

def _bundled(ml, name: str, seed: int, overrides: dict) -> Case:
    data = ml.load_scenario(name)
    data["rng_seed"] = random.Random(seed).randrange(SEED_RANGE)
    merged = ml.scenario.apply_overrides(data, overrides)
    return Case(data, overrides, work=case_work(ml, merged))


def build_sdc_wide(ml, seed: int) -> list:
    return [_bundled(ml, "sdc_5mhz", seed,
                     {"geometry.rows": 32, "geometry.cols": 32, "oversample": 64})]


def build_mimo_frame(ml, seed: int) -> list:
    return [_bundled(ml, "mimo2x2_16qam", seed, {})]


def _point(rng: random.Random, x: float, z: float, role: str) -> dict:
    jitter = [rng.uniform(-0.02, 0.02) for _ in range(3)]
    return {"position_m": [x + jitter[0], jitter[1], z + jitter[2]], "role": role}


def _template(rng: random.Random, mode: str, observers: int) -> dict:
    points = [_point(rng, 0.0, 0.5, "feed")]
    points += [_point(rng, 0.4 * (k - (observers - 1) / 2), 1.0, "rx")
               for k in range(observers)]
    return {
        "name": f"sweep_{mode}", "mode": mode,
        "carrier_freq_hz": CARRIER_HZ, "control_rate_hz": CONTROL_RATE_HZ,
        "rng_seed": 0,
        "geometry": {"rows": 4, "cols": 4, "spacing_m": HALF_WAVELENGTH_M,
                     "origin_m": [0.0, 0.0, 0.0]},
        "points": points,
        "channel": {"kind": "identity", "noise_psd": 0.0},
    }


def _mimo_matrix(rng: random.Random) -> list:
    """Left cells favour rx 0 and right cells rx 1; well conditioned."""
    matrix = []
    for cell in range(16):
        right = cell % 4 >= 2
        strong = [0.125, 0.0]
        weak = [rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03)]
        matrix.append([weak, strong] if right else [strong, weak])
    return matrix


def _noise(rng: random.Random, kind: str, noiseless: bool,
           snr_low_db: float) -> float:
    if noiseless:
        return 0.0
    # received amplitude scale: 16 unit-gain cells, or the 0.125 x 8 matrix
    power = 256.0 if kind == "identity" else 1.0
    return power * 10.0 ** (-rng.uniform(snr_low_db, 30.0) / 10.0)


def _link_overrides(rng: random.Random, scheme: str, sps: int, payload: int) -> dict:
    overrides = {"modulation": scheme,
                 "frame": {"symbol_rate_baud": CONTROL_RATE_HZ / sps,
                           "samples_per_symbol": sps, "payload_symbols": payload},
                 "spectrum_bins": rng.choice([None, 4096])}
    if scheme != "16QAM" and rng.random() < 0.5:
        # PSK points and pilots sit on these phase levels, so noiseless
        # quantized links still decode without error
        overrides["quantization"] = {"phase_levels": rng.choice([8, 16]),
                                     "amplitude_levels": rng.choice([None, 2]),
                                     "phase_offset_rad": 0.0}
    return overrides


def _staircase(rng: random.Random, steps: int) -> dict:
    return {"steps_per_period": steps, "period_s": steps / CONTROL_RATE_HZ,
            "direction": rng.choice(["down", "up"]),
            "amplitude": rng.choice([1.0, 0.8])}


def build_param_sweep(ml, seed: int) -> list:
    """136 small scenarios whose sizes are fixed and whose details are drawn.

    Sizes (mode, modulation, samples, streams, steps per period) form the
    same grid for every seed so that the cost of a pass does not depend on
    the seed; the seed draws the order, noise level, quantization, ramp
    direction, point positions, two-stream channel matrix and each
    rng_seed. Every fourth point is noiseless over a free-space channel;
    the others add noise over unit gains or the two-stream matrix. The
    space-down-conversion points skip L = 2, whose two strongest lines have
    equal power, so no single expected line exists.
    """
    rng = random.Random(seed)
    grid = []
    for sps in (4, 10, 20):
        for scheme in SCHEMES:
            for streams, observers in ((1, 1), (1, 2), (2, 2)):
                grid.append(("transmit_link", {"sps": sps, "scheme": scheme,
                                               "streams": streams,
                                               "observers": observers}))
    for steps in (4, 8, 16, 20):
        for oversample in (8, 16, 32):
            grid.append(("space_down_conversion",
                         {"steps": steps, "oversample": oversample}))
    for steps in (2, 4, 8, 16, 20):
        for scheme in SCHEMES:
            grid.append(("integrated", {"steps": steps, "scheme": scheme}))
    grid = [g for g in grid for _ in range(2)]
    rng.shuffle(grid)

    cases = []
    for index, (mode, size) in enumerate(grid):
        noiseless = index % 4 == 0
        streams = size.get("streams", 1)
        kind = ("explicit_matrix" if streams == 2
                else "free_space" if noiseless else "identity")
        base = _template(rng, mode, size.get("observers", 1))
        if mode == "transmit_link":
            overrides = _link_overrides(rng, size["scheme"], size["sps"], 96)
            overrides.update({"partition": "full" if streams == 1 else "left_right",
                              "oversample": 2})
            if kind == "explicit_matrix":
                overrides["channel.matrix"] = _mimo_matrix(rng)
            snr_low = 5.0
        elif mode == "space_down_conversion":
            overrides = {"staircase": _staircase(rng, size["steps"]),
                         "sdc_periods": 2, "oversample": size["oversample"]}
            snr_low = 10.0
        else:
            overrides = _link_overrides(rng, size["scheme"], 20, 64)
            overrides.update({"partition": "full", "oversample": 2,
                              "staircase": _staircase(rng, size["steps"])})
            snr_low = 10.0
        overrides.update({
            "channel.kind": kind,
            "channel.noise_psd": _noise(rng, kind, noiseless, snr_low),
            "rng_seed": rng.randrange(SEED_RANGE),
        })
        merged = ml.scenario.apply_overrides(base, overrides)
        cases.append(Case(base, overrides, work=case_work(ml, merged),
                          noiseless=noiseless))
    return cases


# ---------------------------------------------------------------------------
# running one case
# ---------------------------------------------------------------------------

def run_to_disk(ml, case: Case, out_dir):
    """The CLI path: load, override, validate, simulate and write artifacts."""
    return ml.run_scenario(case.data, out_dir, overrides=case.overrides)


def run_in_memory(ml, case: Case, out_dir):
    """The library path: nothing touches the disk."""
    data = ml.scenario.apply_overrides(ml.load_scenario(case.data), case.overrides)
    return ml.simulate(ml.Scenario.from_dict(data))


# ---------------------------------------------------------------------------
# correctness gates: each returns a list of violations, empty when correct
# ---------------------------------------------------------------------------

def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _link_entries(summary: dict):
    return [e for e in summary["reports"].values() if e["ber"]]


def _line_errors(result) -> list:
    """The strongest output line sits on the bin of the expected shift."""
    summary = result.summary
    spectrum = result.reports["link"].spectra["output"]
    offset = abs(summary["strongest_line_hz"] - summary["expected_line_hz"])
    if offset > 1e-6 * spectrum.resolution:
        return [f"strongest line {summary['strongest_line_hz']} Hz, expected "
                f"{summary['expected_line_hz']} Hz"]
    return []


def check_sdc_wide(case: Case, result) -> list:
    errors = _line_errors(result)
    steps = case.data["staircase"]["steps_per_period"]
    wanted = sinc2(math.pi / steps)
    rows = [r for r in result.summary["harmonics"] if r["harmonic_index"] == 1]
    if not rows or abs(rows[0]["power_fraction"] - wanted) > 1e-5:
        got = rows[0]["power_fraction"] if rows else None
        errors.append(f"q=1 power fraction {got}, sinc^2(pi/{steps}) = {wanted}")
    return errors


def check_mimo_frame(case: Case, result) -> list:
    errors = []
    entries = _link_entries(result.summary)
    if len(entries) != 1 or len(entries[0]["ber"]) != 2:
        return ["expected one link report with two streams"]
    for s, (b, e) in enumerate(zip(entries[0]["ber"], entries[0]["evm_percent"])):
        if b != 0.0 or not e < 0.1:
            errors.append(f"stream {s}: BER {b}, EVM {e} %")
    return errors


def check_param_sweep(case: Case, result) -> list:
    summary = result.summary
    errors = []
    if not all(math.isfinite(v) for v in _numbers(summary)):
        errors.append("summary holds a non-finite number")
    for entry in _link_entries(summary):
        if not all(0.0 <= b <= 1.0 for b in entry["ber"]):
            errors.append(f"BER outside [0, 1]: {entry['ber']}")
        elif case.noiseless and any(b != 0.0 for b in entry["ber"]):
            errors.append(f"noiseless point has BER {entry['ber']}")
    if summary["mode"] == "space_down_conversion":
        errors += _line_errors(result)
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (metalink, seed) -> list of Case
    run: object    # (metalink, Case, out_dir) -> ScenarioResult
    check: object  # (Case, ScenarioResult) -> list of violations
    writes: bool


WORKLOADS = {w.name: w for w in (
    Workload("sdc_wide", build_sdc_wide, run_to_disk, check_sdc_wide, True),
    Workload("mimo_frame", build_mimo_frame, run_to_disk, check_mimo_frame, True),
    Workload("param_sweep", build_param_sweep, run_in_memory, check_param_sweep,
             False),
)}
