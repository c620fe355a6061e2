"""Declarative scenario configurations and the end-to-end pipeline runner.

A scenario is a JSON object with explicit units in its field names:

  name                str, scenario identifier
  description         str, optional free text
  mode                "transmit_link" | "space_down_conversion" | "integrated"
  carrier_freq_hz     float > 0
  control_rate_hz     float > 0, DAC update rate
  oversample          int >= 1, envelope sample rate = oversample * control rate
  rng_seed            int >= 0
  geometry            {rows, cols, spacing_m, origin_m: [x, y, z]}
  points              [{position_m: [x, y, z], role: "feed" | "rx"}, ...]
                      exactly one feed; every other point is an observer
  channel             {kind: "identity" | "free_space" | "explicit_matrix",
                       noise_psd: float >= 0,
                       matrix: [[[re, im] per point] per cell]  (explicit only),
                       wavelength_m: float, optional free_space override}
  partition           "full" | "left_right" | [stream id per cell]   (link modes)
  modulation          "BPSK" | "QPSK" | "8PSK" | "16QAM"             (link modes)
  frame               {symbol_rate_baud, samples_per_symbol, payload_symbols}
                                                                    (link modes)
  staircase           {steps_per_period, period_s, direction: "down" | "up",
                       amplitude}                                   (SDC modes)
  sdc_periods         int >= 1, tone duration in staircase periods
                                                   (space_down_conversion only)
  quantization        {phase_levels, amplitude_levels, phase_offset_rad},
                      optional; null levels mean continuous         (link modes)
  spectrum_bins       int >= 2 or null; artifact DFT length cap
                                         (null in space_down_conversion mode)

Link modes are transmit_link and integrated; SDC modes are
space_down_conversion and integrated. A field marked with modes must be
absent or null in every other mode: validate reports it rather than ignore it.

Modes:
  transmit_link          feed tone -> data-modulating surface -> rx antennas
  space_down_conversion  feed tone -> staircase-ramping surface -> rx antenna
  integrated             the transmit link, then the surface switches to the
                         ramp while the first rx point transmits a modulated
                         frame back through it to the feed antenna

Artifacts written by run_scenario: constellation_{stream}.csv,
spectrum_{tag}.csv, summary.json. Runs are pure functions of the scenario
plus rng_seed, so repeated runs produce byte-identical CSVs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import core, metasurface, propagation, spectral, txrx

MODES = ("transmit_link", "space_down_conversion", "integrated")
LINK_MODES = ("transmit_link", "integrated")
SDC_MODES = ("space_down_conversion", "integrated")
# fields a mode never reads; a non-null value there is reported, not ignored
UNUSED_FIELDS = {
    "transmit_link": ("staircase", "sdc_periods"),
    "space_down_conversion": ("modulation", "partition", "frame", "quantization"),
    "integrated": ("sdc_periods",),
}


# ---------------------------------------------------------------------------
# loading and overrides
# ---------------------------------------------------------------------------

def bundled_scenario_names() -> list:
    files = resources.files("metalink.scenarios")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_scenario(source) -> dict:
    """Load a scenario dict from a mapping, a JSON file path, or a bundled name."""
    if isinstance(source, dict):
        return json.loads(json.dumps(source))  # deep copy, JSON-clean
    name = str(source)
    path = Path(name)
    if path.is_file():
        text = path.read_text()
    else:
        stem = name[:-5] if name.endswith(".json") else name
        if stem in bundled_scenario_names():
            text = (resources.files("metalink.scenarios") / f"{stem}.json").read_text()
        else:
            raise core.ConfigurationError(
                f"no scenario file or bundled scenario named {name!r}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise core.ConfigurationError(f"scenario {name!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise core.ConfigurationError(f"scenario {name!r} must be a JSON object")
    return data


def apply_overrides(data: dict, overrides: dict) -> dict:
    """Apply {"dotted.key": value} overrides; values may be JSON literals."""
    out = json.loads(json.dumps(data))
    for dotted, value in overrides.items():
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except json.JSONDecodeError:
                pass  # keep as plain string
        node = out
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise core.ConfigurationError(
                    f"override {dotted!r} descends into a non-object field")
        node[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _is_num(v) -> bool:
    """A finite JSON number; json.loads accepts NaN and +/-Infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _point3(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 3 and all(_is_num(x) for x in v)


def validate(data: dict) -> list:
    """Exhaustive scenario validation; returns every violation, runs nothing."""
    errs = []
    if not isinstance(data, dict):
        return ["scenario must be a JSON object"]

    name = data.get("name")
    if not isinstance(name, str) or not name:
        errs.append("name: required non-empty string")
    mode = data.get("mode")
    if mode not in MODES:
        errs.append(f"mode: must be one of {MODES}")
        mode = None
    else:
        errs.extend(f"{key}: not used in {mode} mode; remove it or set it to null"
                    for key in UNUSED_FIELDS[mode] if data.get(key) is not None)

    for key in ("carrier_freq_hz", "control_rate_hz"):
        v = data.get(key)
        if not _is_num(v) or v <= 0:
            errs.append(f"{key}: required number > 0")
    oversample = data.get("oversample", 16)
    if not _is_int(oversample) or oversample < 1:
        errs.append("oversample: must be an integer >= 1")
    seed = data.get("rng_seed")
    if not _is_int(seed) or seed < 0:
        errs.append("rng_seed: required integer >= 0")

    geometry = data.get("geometry")
    num_cells = None
    if not isinstance(geometry, dict):
        errs.append("geometry: required object {rows, cols, spacing_m, origin_m}")
        geometry = {}
    rows, cols = geometry.get("rows"), geometry.get("cols")
    if not _is_int(rows) or rows < 1:
        errs.append("geometry.rows: integer >= 1 required")
    if not _is_int(cols) or cols < 1:
        errs.append("geometry.cols: integer >= 1 required")
    spacing = geometry.get("spacing_m")
    if not _is_num(spacing) or spacing <= 0:
        errs.append("geometry.spacing_m: must be > 0 (cell pitch in meters)")
    origin = geometry.get("origin_m", [0.0, 0.0, 0.0])
    if not _point3(origin):
        errs.append("geometry.origin_m: must be a 3-number list")
    if _is_int(rows) and rows >= 1 and _is_int(cols) and cols >= 1:
        num_cells = rows * cols

    points = data.get("points")
    num_obs = None
    if not isinstance(points, list) or not points:
        errs.append("points: required non-empty list of {position_m, role}")
        points = []
    feed_count = 0
    for i, p in enumerate(points):
        if not isinstance(p, dict) or not _point3(p.get("position_m")) \
                or not isinstance(p.get("role"), str):
            errs.append(f"points[{i}]: needs position_m [x, y, z] and a role string")
            continue
        if p["role"] == "feed":
            feed_count += 1
    if points:
        if feed_count != 1:
            errs.append("points: exactly one point must have role 'feed'")
        num_obs = len(points) - feed_count
        if num_obs < 1:
            errs.append("points: at least one observation (non-feed) point required")
    if (num_cells is not None and _is_num(spacing) and spacing > 0
            and _point3(origin) and points):
        geo = core.SurfaceGeometry(rows, cols, spacing, tuple(origin))
        cells = core.cell_positions(geo)
        for i, p in enumerate(points):
            pos = p.get("position_m")
            if _point3(pos):
                d = np.linalg.norm(cells - np.asarray(pos, float), axis=1)
                if np.any(d == 0.0):
                    errs.append(f"points[{i}]: coincides with a unit-cell position")

    channel = data.get("channel")
    if not isinstance(channel, dict):
        errs.append("channel: required object {kind, noise_psd, ...}")
        channel = {}
    kind = channel.get("kind")
    if kind not in propagation.CHANNEL_KINDS:
        errs.append(f"channel.kind: must be one of {propagation.CHANNEL_KINDS}")
    noise = channel.get("noise_psd", 0.0)
    if not _is_num(noise) or noise < 0:
        errs.append("channel.noise_psd: must be a number >= 0")
    if kind == "explicit_matrix":
        matrix = channel.get("matrix")
        shape_ok = (isinstance(matrix, list) and matrix
                    and all(isinstance(r, list) and len(r) == len(matrix[0])
                            and all(isinstance(e, list) and len(e) == 2
                                    and all(_is_num(x) for x in e) for e in r)
                            for r in matrix))
        if not shape_ok:
            errs.append("channel.matrix: must be [[[re, im] per point] per cell]")
        elif num_cells is not None and num_obs is not None:
            if len(matrix) != num_cells or len(matrix[0]) != num_obs:
                errs.append(
                    f"channel.matrix: shape ({len(matrix)}, {len(matrix[0])}) must be "
                    f"(cells, observation points) = ({num_cells}, {num_obs})")
        if mode == "integrated":
            errs.append("channel.kind: integrated mode needs identity or free_space "
                        "(the two phases observe from different points)")
    if kind == "free_space":
        wl = channel.get("wavelength_m")
        if wl is not None and (not _is_num(wl) or wl <= 0):
            errs.append("channel.wavelength_m: must be > 0 when given")

    quant = data.get("quantization")
    if quant is not None:
        if not isinstance(quant, dict):
            errs.append("quantization: must be an object when given")
        else:
            for key in ("phase_levels", "amplitude_levels"):
                v = quant.get(key)
                if v is not None and (not _is_int(v) or v < 1):
                    errs.append(f"quantization.{key}: must be null or an integer >= 1")
            off = quant.get("phase_offset_rad", 0.0)
            if not _is_num(off):
                errs.append("quantization.phase_offset_rad: must be a number")

    bins = data.get("spectrum_bins")
    if bins is not None and (not _is_int(bins) or bins < 2):
        errs.append("spectrum_bins: must be null or an integer >= 2")
    if bins is not None and mode == "space_down_conversion":
        errs.append("spectrum_bins: must be null in space_down_conversion mode, since "
                    "the harmonic table needs the DFT to span whole ramp periods")

    if mode in LINK_MODES or mode is None:
        errs.extend(_validate_link_fields(data, mode, num_cells, num_obs))
    if mode in SDC_MODES:
        errs.extend(_validate_staircase_fields(data, mode))
    return errs


def _validate_link_fields(data, mode, num_cells, num_obs) -> list:
    errs = []
    required = mode in LINK_MODES
    modulation = data.get("modulation")
    if modulation is None:
        if required:
            errs.append("modulation: required for transmit/integrated modes")
    elif not isinstance(modulation, str) or modulation.upper() not in txrx.SCHEME_NAMES:
        errs.append(f"modulation: must be one of {txrx.SCHEME_NAMES}")

    partition = data.get("partition")
    num_streams = None
    if partition is None:
        if required:
            errs.append("partition: required for transmit/integrated modes")
    elif isinstance(partition, str):
        if partition not in ("full", "left_right"):
            errs.append("partition: string form must be 'full' or 'left_right'")
        else:
            num_streams = 1 if partition == "full" else 2
            if partition == "left_right" and isinstance(data.get("geometry"), dict):
                cols = data["geometry"].get("cols")
                if _is_int(cols) and cols % 2 != 0:
                    errs.append("partition: left_right needs an even column count")
    elif isinstance(partition, list):
        if not partition or not all(_is_int(s) and s >= 0 for s in partition):
            errs.append("partition: list form must hold stream ids >= 0")
        else:
            if num_cells is not None and len(partition) != num_cells:
                errs.append(f"partition: needs one stream id per cell ({num_cells})")
            ids = sorted(set(partition))
            if ids != list(range(len(ids))):
                errs.append("partition: stream ids must cover 0..S-1 with no gaps")
            num_streams = len(ids)
    else:
        errs.append("partition: must be 'full', 'left_right', or a per-cell list")

    frame = data.get("frame")
    if not isinstance(frame, dict):
        if required:
            errs.append("frame: required object {symbol_rate_baud, "
                        "samples_per_symbol, payload_symbols}")
        frame = {}
    rate = frame.get("symbol_rate_baud")
    if frame and (not _is_num(rate) or rate <= 0):
        errs.append("frame.symbol_rate_baud: required number > 0")
    sps = frame.get("samples_per_symbol")
    if frame and (not _is_int(sps) or sps < 1):
        errs.append("frame.samples_per_symbol: integer >= 1 required")
    payload = frame.get("payload_symbols")
    if frame and (not _is_int(payload) or payload < 1):
        errs.append("frame.payload_symbols: integer >= 1 required")
    control = data.get("control_rate_hz")
    if _is_num(rate) and rate > 0 and _is_int(sps) and sps >= 1 \
            and _is_num(control) and control > 0:
        if abs(rate * sps - control) > 1e-9 * control:
            errs.append("frame: symbol_rate_baud * samples_per_symbol must equal "
                        "control_rate_hz")
    if num_streams is not None and num_obs is not None and num_obs < num_streams:
        errs.append(f"points: {num_obs} observation antennas cannot resolve "
                    f"{num_streams} streams")
    return errs


def _validate_staircase_fields(data, mode) -> list:
    errs = []
    staircase = data.get("staircase")
    if not isinstance(staircase, dict):
        errs.append("staircase: required object {steps_per_period, period_s, "
                    "direction, amplitude} for SDC/integrated modes")
        staircase = {}
    steps = staircase.get("steps_per_period")
    if staircase and (not _is_int(steps) or steps < 2):
        errs.append("staircase.steps_per_period: integer >= 2 required")
    period = staircase.get("period_s")
    if staircase and (not _is_num(period) or period <= 0):
        errs.append("staircase.period_s: required number > 0")
    direction = staircase.get("direction", "down")
    if direction not in ("down", "up"):
        errs.append("staircase.direction: must be 'down' or 'up'")
    amp = staircase.get("amplitude", 1.0)
    if not _is_num(amp) or not 0 <= amp <= 1:
        errs.append("staircase.amplitude: must lie in [0, 1]")
    control = data.get("control_rate_hz")
    if _is_num(control) and control > 0 and _is_int(steps) and steps >= 2 \
            and _is_num(period) and period > 0:
        if abs(control * period - steps) > 1e-9 * steps:
            errs.append("staircase: control_rate_hz * period_s must equal "
                        "steps_per_period exactly (integer samples per period)")
    if mode == "space_down_conversion":
        periods = data.get("sdc_periods")
        if not _is_int(periods) or periods < 1:
            errs.append("sdc_periods: integer >= 1 required for "
                        "space_down_conversion mode")
    return errs


# ---------------------------------------------------------------------------
# typed scenario
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """Validated, typed view of a scenario dict."""

    name: str
    mode: str
    carrier_freq_hz: float
    control_rate_hz: float
    oversample: int
    rng_seed: int
    geometry: core.SurfaceGeometry
    points: core.PointSet
    channel_kind: str
    noise_psd: float
    channel_matrix: np.ndarray | None
    wavelength_m: float | None
    partition_spec: object
    modulation: str | None
    symbol_rate_baud: float | None
    samples_per_symbol: int | None
    payload_symbols: int | None
    staircase: metasurface.StaircaseRampSpec | None
    sdc_periods: int | None
    quantization: metasurface.QuantizationModel
    spectrum_bins: int | None
    description: str = ""

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        violations = validate(data)
        if violations:
            raise core.ConfigurationError("invalid scenario:\n  " +
                                          "\n  ".join(violations))
        geometry = core.SurfaceGeometry(
            data["geometry"]["rows"], data["geometry"]["cols"],
            data["geometry"]["spacing_m"],
            tuple(data["geometry"].get("origin_m", (0.0, 0.0, 0.0))))
        points = core.PointSet(
            np.array([p["position_m"] for p in data["points"]], dtype=float),
            tuple(p["role"] for p in data["points"]))
        channel = data["channel"]
        matrix = None
        if channel["kind"] == "explicit_matrix":
            raw = np.asarray(channel["matrix"], dtype=float)
            matrix = raw[..., 0] + 1j * raw[..., 1]
        staircase = None
        if data.get("staircase") is not None:
            sc = data["staircase"]
            staircase = metasurface.StaircaseRampSpec(
                period=sc["period_s"], steps_per_period=sc["steps_per_period"],
                direction=-1 if sc.get("direction", "down") == "down" else 1,
                amplitude=sc.get("amplitude", 1.0))
        quant = metasurface.CONTINUOUS
        if data.get("quantization") is not None:
            q = data["quantization"]
            quant = metasurface.QuantizationModel(
                phase_levels=q.get("phase_levels"),
                amplitude_levels=q.get("amplitude_levels"),
                phase_offset=q.get("phase_offset_rad", 0.0))
        frame = data.get("frame") or {}
        return cls(
            name=data["name"], mode=data["mode"],
            carrier_freq_hz=float(data["carrier_freq_hz"]),
            control_rate_hz=float(data["control_rate_hz"]),
            oversample=int(data.get("oversample", 16)),
            rng_seed=int(data["rng_seed"]),
            geometry=geometry, points=points,
            channel_kind=channel["kind"],
            noise_psd=float(channel.get("noise_psd", 0.0)),
            channel_matrix=matrix,
            wavelength_m=channel.get("wavelength_m"),
            partition_spec=data.get("partition"),
            modulation=data.get("modulation"),
            symbol_rate_baud=frame.get("symbol_rate_baud"),
            samples_per_symbol=frame.get("samples_per_symbol"),
            payload_symbols=frame.get("payload_symbols"),
            staircase=staircase,
            sdc_periods=data.get("sdc_periods"),
            quantization=quant,
            spectrum_bins=data.get("spectrum_bins"),
            description=data.get("description", ""))

    def channel_model(self) -> propagation.ChannelModel:
        wavelength = self.wavelength_m or core.wavelength_of(self.carrier_freq_hz)
        return propagation.ChannelModel(
            kind=self.channel_kind, wavelength=wavelength,
            matrix=self.channel_matrix, noise_psd=self.noise_psd)

    def partition(self) -> txrx.SurfacePartition:
        if self.partition_spec == "full":
            return txrx.SurfacePartition.full_surface(self.geometry)
        if self.partition_spec == "left_right":
            return txrx.SurfacePartition.left_right(self.geometry)
        ids = np.asarray(self.partition_spec, dtype=np.int64)
        return txrx.SurfacePartition(ids, int(ids.max()) + 1)

    def frame(self, num_streams: int) -> txrx.FrameSpec:
        return txrx.FrameSpec.with_default_pilots(
            num_streams, self.payload_symbols, self.symbol_rate_baud,
            self.samples_per_symbol)

    def envelope_rate(self) -> float:
        return self.oversample * self.control_rate_hz

    def spectrum_length(self, available: int) -> int:
        if self.spectrum_bins is None:
            return available
        return min(self.spectrum_bins, available)


@dataclass
class ScenarioResult:
    scenario: Scenario
    reports: dict
    summary: dict
    artifact_paths: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _link_phase(sc: Scenario, channels: propagation.ChannelSet,
                bits_seed, noise_seeds) -> txrx.LinkReport:
    scheme = txrx.get_scheme(sc.modulation)
    partition = sc.partition()
    frame = sc.frame(partition.num_streams)
    rng = np.random.default_rng(bits_seed)
    bits = rng.integers(0, 2, size=(partition.num_streams,
                                    frame.payload_length * scheme.bits_per_symbol))
    symbols = np.stack([txrx.map_bits(bits[s], scheme)
                        for s in range(partition.num_streams)])
    schedule = txrx.symbols_to_schedule(symbols, frame, sc.quantization)
    carrier = core.tone_envelope(
        frame.num_symbols * frame.samples_per_symbol * sc.oversample,
        sc.envelope_rate(), sc.carrier_freq_hz)
    rx = propagation.surface_pass(carrier, schedule, partition.stream_of_cell,
                                  channels, sc.noise_psd, noise_seeds)
    report = txrx.receive_frame(rx, frame, scheme, 0.0, reference=symbols)
    report.spectra["rx0"] = spectral.periodogram(
        rx[0], sc.spectrum_length(len(rx[0])))
    return report


def _harmonic_table(sc: Scenario, spectrum: spectral.Spectrum) -> list:
    ramp = sc.staircase
    L = ramp.steps_per_period
    total = spectrum.total_power
    rows = []
    for k in range(-3, 4):
        q = 1 + k * L
        freq = q * ramp.frequency_shift
        if abs(freq) > sc.envelope_rate() / 2:
            continue
        predicted = float(spectral.staircase_harmonics(L, [q])[0] ** 2)
        measured = spectral.line_power(spectrum, freq) / total
        rows.append({"harmonic_index": q, "freq_hz": freq,
                     "power_fraction": measured,
                     "predicted_fraction": predicted})
    return rows


def _run_transmit_link(sc: Scenario) -> ScenarioResult:
    seeds = np.random.SeedSequence(sc.rng_seed).spawn(1 + len(sc.points))
    channels = propagation.build_channels(sc.geometry, sc.points, sc.channel_model())
    report = _link_phase(sc, channels, seeds[0], seeds[1:1 + channels.num_points])
    summary = _summarize(sc, {"link": report})
    return ScenarioResult(sc, {"link": report}, summary)


def _run_sdc(sc: Scenario) -> ScenarioResult:
    seeds = np.random.SeedSequence(sc.rng_seed).spawn(1 + len(sc.points))
    channels = propagation.build_channels(sc.geometry, sc.points, sc.channel_model())
    duration = sc.sdc_periods * sc.staircase.period
    ramp = metasurface.compile_staircase(sc.staircase, sc.control_rate_hz, duration)
    carrier = core.tone_envelope(ramp.num_steps * sc.oversample, sc.envelope_rate(),
                                 sc.carrier_freq_hz)
    whole = txrx.SurfacePartition.full_surface(sc.geometry)
    rx = propagation.surface_pass(carrier, ramp, whole.stream_of_cell, channels,
                                  sc.noise_psd, seeds[1:1 + channels.num_points])
    report = txrx.LinkReport()
    report.spectra["input"] = spectral.periodogram(carrier)
    report.spectra["output"] = spectral.periodogram(rx[0])
    summary = _summarize(sc, {"link": report})
    out_spec = report.spectra["output"]
    summary["strongest_line_hz"] = float(
        out_spec.frequencies[int(np.argmax(out_spec.power))])
    summary["expected_line_hz"] = sc.staircase.frequency_shift
    summary["harmonics"] = _harmonic_table(sc, out_spec)
    return ScenarioResult(sc, {"link": report}, summary)


def _run_integrated(sc: Scenario) -> ScenarioResult:
    seeds = np.random.SeedSequence(sc.rng_seed).spawn(2 + len(sc.points) + 1)
    model = sc.channel_model()

    # transmit phase: feed lights the surface, surface modulates, rx points observe
    channels_tx = propagation.build_channels(sc.geometry, sc.points, model)
    tx_report = _link_phase(sc, channels_tx, seeds[0],
                            seeds[2:2 + channels_tx.num_points])
    tx_report.spectra["tx_rx0"] = tx_report.spectra.pop("rx0")

    # receive phase: the first rx point transmits a frame, the surface ramps,
    # and the feed antenna (switched to a receive chain) observes
    feed_idx = sc.points.indices_with_role("feed")[0]
    obs_idx = [i for i in range(len(sc.points)) if i != feed_idx]
    back_points = core.PointSet(
        sc.points.positions[[obs_idx[0], feed_idx]], ("feed", "rx"))
    channels_rx = propagation.build_channels(sc.geometry, back_points, model)

    scheme = txrx.get_scheme(sc.modulation)
    frame = sc.frame(1)
    rng = np.random.default_rng(seeds[1])
    bits = rng.integers(0, 2, size=frame.payload_length * scheme.bits_per_symbol)
    symbols = txrx.map_bits(bits, scheme)
    all_symbols = np.concatenate([frame.pilots[0], symbols])
    env_rate = sc.envelope_rate()
    incident = txrx.symbols_to_waveform(
        all_symbols, sc.samples_per_symbol * sc.oversample, env_rate,
        sc.carrier_freq_hz)
    ramp = metasurface.compile_staircase(sc.staircase, sc.control_rate_hz,
                                         len(incident) / env_rate)
    whole = txrx.SurfacePartition.full_surface(sc.geometry)
    rx = propagation.surface_pass(incident, ramp, whole.stream_of_cell, channels_rx,
                                  sc.noise_psd, seeds[-1:])
    rx_report = txrx.receive_frame(rx, frame, scheme,
                                   expected_shift=sc.staircase.frequency_shift,
                                   reference=symbols[np.newaxis, :])
    rx_report.spectra["sdc_rx0"] = spectral.periodogram(
        rx[0], sc.spectrum_length(len(rx[0])))

    reports = {"transmit": tx_report, "receive": rx_report}
    summary = _summarize(sc, reports)
    summary["expected_line_hz"] = sc.staircase.frequency_shift
    return ScenarioResult(sc, reports, summary)


def simulate(sc: Scenario) -> ScenarioResult:
    """Run a validated scenario without writing artifacts."""
    if sc.mode == "transmit_link":
        return _run_transmit_link(sc)
    if sc.mode == "space_down_conversion":
        return _run_sdc(sc)
    return _run_integrated(sc)


def _summarize(sc: Scenario, reports: dict) -> dict:
    out = {"scenario": sc.name, "mode": sc.mode, "rng_seed": sc.rng_seed,
           "reports": {}}
    for key, report in reports.items():
        entry = {
            "streams": report.num_streams,
            "evm_percent": [float(v) for v in report.evm_percent],
            "ber": [float(v) for v in report.ber],
            "condition_number": report.condition_number,
        }
        if report.channel_estimate is not None:
            entry["channel_estimate"] = [
                [[float(v.real), float(v.imag)] for v in row]
                for row in report.channel_estimate]
        out["reports"][key] = entry
    return out


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: str, row_fmt: str, columns) -> None:
    """Write equal-length columns with one %-format per block of rows.

    %.17g prints what f"{v:.17g}" prints, numbers never need CSV quoting,
    and only one block is stacked at a time, so memory stays bounded.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = np.column_stack([c[i:i + CSV_BLOCK_ROWS] for c in columns])
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_artifacts(result: ScenarioResult, out_dir) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    single = len(result.reports) == 1
    for key, report in result.reports.items():
        prefix = "" if single else f"{key}_"
        for s in range(report.num_streams):
            if not report.reference_symbols:
                continue
            path = out / f"constellation_{prefix}{s}.csv"
            d, r = report.detected_symbols[s], report.reference_symbols[s]
            _write_csv(path, "symbol_index,i,q,ref_i,ref_q",
                       "%d,%.17g,%.17g,%.17g,%.17g\n",
                       (np.arange(len(d)), d.real, d.imag, r.real, r.imag))
            paths.append(path)
        for tag, spectrum in report.spectra.items():
            path = out / f"spectrum_{tag}.csv"
            with np.errstate(divide="ignore"):
                power_db = 10.0 * np.log10(spectrum.power)
            _write_csv(path, "freq_hz,power_linear,power_db", "%.17g,%.17g,%.17g\n",
                       (spectrum.frequencies, spectrum.power, power_db))
            paths.append(path)
    result.summary["artifacts"] = sorted(p.name for p in paths) + ["summary.json"]
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(result.summary, indent=2, sort_keys=True)
                            + "\n")
    paths.append(summary_path)
    result.artifact_paths = paths
    return paths


def run_scenario(source, out_dir, seed: int | None = None,
                 overrides: dict | None = None) -> ScenarioResult:
    """Load, validate, simulate, and write artifacts; the CLI entry path."""
    data = load_scenario(source)
    if overrides:
        data = apply_overrides(data, overrides)
    if seed is not None:
        data["rng_seed"] = seed
    sc = Scenario.from_dict(data)
    result = simulate(sc)
    write_artifacts(result, out_dir)
    return result
