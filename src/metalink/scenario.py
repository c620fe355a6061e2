"""Declarative scenario configurations and the end-to-end pipeline runner.

A scenario is a JSON object with explicit units in its field names. FIELDS
below is its schema: each row names one field by its dotted path, the
values it accepts, its default, and the modes and channel kinds that read
it. validate walks that table and then checks the rules that tie fields
together; Scenario.from_dict builds the scenario's objects from the values
and defaults that walk accepted.
An absent field and a null one mean the same thing. A non-null field that
the mode or the channel kind does not read, and a key the table does not
name, are reported rather than ignored.

Modes:
  transmit_link          feed tone -> data-modulating surface -> rx antennas
  space_down_conversion  feed tone -> staircase-ramping surface -> rx antenna
  integrated             the transmit link, then the surface switches to the
                         ramp while the first rx point transmits a modulated
                         frame back through it to the feed antenna

Artifacts written by run_scenario: constellation_{stream}.npy and
spectrum_{tag}.npy, each a structured table whose fields are its columns
(CONSTELLATION_DTYPE, SPECTRUM_DTYPE), and summary.json. export_csv writes
the same tables as CSV. Runs are pure functions of the scenario plus
rng_seed, so repeated runs produce byte-identical artifacts.
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
KINDS = propagation.CHANNEL_KINDS


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
            if node.get(part) is None:  # absent or null: start an object
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise core.ConfigurationError(
                    f"override {dotted!r} descends into a non-object field")
        node[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# schema and validation
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a field that must be given


@dataclass(frozen=True)
class Field:
    """One schema field: where it sits, what it accepts and who reads it.

    check is applied to non-null values, and rule says what it accepts.
    An absent or null value takes default, unless that is REQUIRED. In a
    mode outside modes, or with a channel kind outside kinds, the field
    must be absent or null.
    """

    path: str
    check: object
    rule: str
    default: object = REQUIRED
    modes: tuple = MODES
    kinds: tuple = KINDS
    parent: str = field(init=False)
    key: str = field(init=False)

    def __post_init__(self):
        parent, _, key = self.path.rpartition(".")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "key", key)


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


def _positive(v) -> bool:
    return _is_num(v) and v > 0


def _int_from(low):
    return lambda v: _is_int(v) and v >= low


def _point3(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 3 and all(_is_num(x) for x in v)


def _is_point(p) -> bool:
    return (isinstance(p, dict) and p.keys() == {"position_m", "role"}
            and _point3(p["position_m"]) and isinstance(p["role"], str))


def _is_matrix(m) -> bool:
    return (isinstance(m, list) and len(m) > 0
            and all(isinstance(r, list) and len(r) == len(m[0])
                    and all(isinstance(e, list) and len(e) == 2
                            and all(_is_num(x) for x in e) for e in r)
                    for r in m))


def _is_partition(v) -> bool:
    return v in ("full", "left_right") or (
        isinstance(v, list) and len(v) > 0 and all(_is_int(s) and s >= 0 for s in v))


def _is_object(v) -> bool:
    return isinstance(v, dict)


# parents come before their children, and mode and channel.kind before the
# fields they gate
FIELDS = (
    Field("name", lambda v: isinstance(v, str) and v != "",
          "must be a non-empty string"),
    Field("description", lambda v: isinstance(v, str), "must be a string", ""),
    Field("mode", MODES.__contains__, f"must be one of {MODES}"),
    Field("carrier_freq_hz", _positive, "must be a number > 0"),
    Field("control_rate_hz", _positive, "must be a number > 0 (DAC update rate)"),
    Field("oversample", _int_from(1),
          "must be an integer >= 1 (envelope rate = oversample * control rate)", 16),
    Field("rng_seed", _int_from(0), "must be an integer >= 0"),
    Field("geometry", _is_object,
          "must be an object {rows, cols, spacing_m, origin_m}"),
    Field("geometry.rows", _int_from(1), "must be an integer >= 1"),
    Field("geometry.cols", _int_from(1), "must be an integer >= 1"),
    Field("geometry.spacing_m", _positive, "must be > 0 (cell pitch in meters)"),
    Field("geometry.origin_m", _point3, "must be a 3-number list (grid center)",
          (0.0, 0.0, 0.0)),
    Field("points", lambda v: isinstance(v, list) and v and all(map(_is_point, v)),
          "must be a non-empty list of {position_m: [x, y, z], role: string}; "
          "role 'feed' marks the feed antenna, every other point observes"),
    Field("channel", _is_object, "must be an object {kind, noise_psd, ...}"),
    Field("channel.kind", KINDS.__contains__, f"must be one of {KINDS}"),
    Field("channel.noise_psd", lambda v: _is_num(v) and v >= 0,
          "must be a number >= 0 (noise variance per received sample)", 0.0),
    Field("channel.matrix", _is_matrix, "must be [[[re, im] per point] per cell]",
          kinds=("explicit_matrix",)),
    Field("channel.wavelength_m", _positive,
          "must be a number > 0 (overrides the carrier's wavelength)", None,
          kinds=("free_space",)),
    Field("partition", _is_partition,
          "must be 'full', 'left_right', or a list of stream ids >= 0, one per cell",
          modes=LINK_MODES),
    Field("modulation",
          lambda v: isinstance(v, str) and v.upper() in txrx.SCHEME_NAMES,
          f"must be one of {txrx.SCHEME_NAMES}", modes=LINK_MODES),
    Field("frame", _is_object,
          "must be an object {symbol_rate_baud, samples_per_symbol, payload_symbols}",
          modes=LINK_MODES),
    Field("frame.symbol_rate_baud", _positive, "must be a number > 0"),
    Field("frame.samples_per_symbol", _int_from(1), "must be an integer >= 1"),
    Field("frame.payload_symbols", _int_from(1), "must be an integer >= 1"),
    Field("quantization", _is_object,
          "must be an object {phase_levels, amplitude_levels, phase_offset_rad}",
          None, modes=LINK_MODES),
    Field("quantization.phase_levels", _int_from(1),
          "must be an integer >= 1 (null means continuous)", None),
    Field("quantization.amplitude_levels", _int_from(1),
          "must be an integer >= 1 (null means continuous)", None),
    Field("quantization.phase_offset_rad", _is_num, "must be a number", 0.0),
    Field("staircase", _is_object,
          "must be an object {steps_per_period, period_s, direction, amplitude}",
          modes=SDC_MODES),
    Field("staircase.steps_per_period", _int_from(2), "must be an integer >= 2"),
    Field("staircase.period_s", _positive, "must be a number > 0"),
    Field("staircase.direction", ("down", "up").__contains__,
          "must be 'down' or 'up'", "down"),
    Field("staircase.amplitude", lambda v: _is_num(v) and 0 <= v <= 1,
          "must lie in [0, 1]", 1.0),
    Field("sdc_periods", _int_from(1),
          "must be an integer >= 1 (tone duration in staircase periods)",
          modes=("space_down_conversion",)),
    Field("spectrum_bins", _int_from(2),
          "must be an integer >= 2 (cap on the artifact DFT length)", None),
)
_NAMES = {}  # the keys of each object the table describes
for _f in FIELDS:
    _NAMES.setdefault(_f.parent, set()).add(_f.key)


def validate(data: dict) -> list:
    """Exhaustive scenario validation; returns every violation, runs nothing."""
    return _walk(data)[0]


def _walk(data: dict) -> tuple:
    """(violations, accepted): accepted maps each dotted path whose field
    was accepted to its value, or to its default when absent or null."""
    if not isinstance(data, dict):
        return ["scenario must be a JSON object"], {}
    errs = [f"{k}: unknown field" for k in data if k not in _NAMES[""]]
    valid = {"": data}
    for f in FIELDS:
        parent = valid.get(f.parent)
        if not isinstance(parent, dict):
            continue  # reported at the parent, or the parent is null
        value = parent.get(f.key)
        mode, kind = valid.get("mode"), valid.get("channel.kind")
        if mode is not None and mode not in f.modes:
            if value is not None:
                errs.append(f"{f.path}: not used in {mode} mode; "
                            "remove it or set it to null")
        elif kind is not None and kind not in f.kinds:
            if value is not None:
                errs.append(f"{f.path}: not used by {kind} channels; "
                            "remove it or set it to null")
        elif value is None:
            if f.default is not REQUIRED:
                valid[f.path] = f.default
            # a field read by some modes or kinds only is required once
            # the mode and the kind are known
            elif (mode is not None or f.modes == MODES) and \
                    (kind is not None or f.kinds == KINDS):
                errs.append(f"{f.path}: required; {f.rule}")
        elif not f.check(value):
            errs.append(f"{f.path}: {f.rule}")
        else:
            valid[f.path] = value
            if isinstance(value, dict):
                errs.extend(f"{f.path}.{k}: unknown field"
                            for k in value if k not in _NAMES.get(f.path, ()))
    return errs + _cross_field_violations(valid), valid


def _cross_field_violations(valid: dict) -> list:
    """The rules that tie accepted fields together."""
    errs = []
    mode, control = valid.get("mode"), valid.get("control_rate_hz")
    rows, cols, spacing, origin = (valid.get(f"geometry.{k}") for k in
                                   ("rows", "cols", "spacing_m", "origin_m"))
    num_cells = rows * cols if None not in (rows, cols) else None

    points, num_obs = valid.get("points"), None
    if points is not None:
        feeds = sum(p["role"] == "feed" for p in points)
        if feeds != 1:
            errs.append("points: exactly one point must have role 'feed'")
        num_obs = len(points) - feeds
        if num_obs < 1:
            errs.append("points: at least one observation (non-feed) point required")
        if None not in (num_cells, spacing, origin):
            cells = core.cell_positions(
                core.SurfaceGeometry(rows, cols, spacing, tuple(origin)))
            at = np.array([p["position_m"] for p in points], dtype=float)
            # a huge geometry overflows to inf or nan, which never reads as
            # coincident; a free-space run then names the non-finite gains
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                d = np.linalg.norm(cells[:, np.newaxis] - at, axis=2)  # (cells, points)
            errs.extend(f"points[{i}]: coincides with a unit-cell position"
                        for i in np.flatnonzero(np.any(d == 0.0, axis=0)))

    matrix = valid.get("channel.matrix")
    if matrix is not None and None not in (num_cells, num_obs) \
            and (len(matrix), len(matrix[0])) != (num_cells, num_obs):
        errs.append(f"channel.matrix: shape ({len(matrix)}, {len(matrix[0])}) must "
                    f"be (cells, observation points) = ({num_cells}, {num_obs})")
    if mode == "integrated" and valid.get("channel.kind") == "explicit_matrix":
        errs.append("channel.kind: integrated mode needs identity or free_space "
                    "(the two phases observe from different points)")
    if mode == "space_down_conversion" and valid.get("spectrum_bins") is not None:
        errs.append("spectrum_bins: must be null in space_down_conversion mode, since "
                    "the harmonic table needs the DFT to span whole ramp periods")

    partition, num_streams = valid.get("partition"), None
    if partition == "full":
        num_streams = 1
    elif partition == "left_right":
        num_streams = 2
        if cols is not None and cols % 2 != 0:
            errs.append("partition: left_right needs an even column count")
    elif partition is not None:
        if num_cells is not None and len(partition) != num_cells:
            errs.append(f"partition: needs one stream id per cell ({num_cells})")
        ids = sorted(set(partition))
        if ids != list(range(len(ids))):
            errs.append("partition: stream ids must cover 0..S-1 with no gaps")
        num_streams = len(ids)
    if None not in (num_streams, num_obs) and num_obs < num_streams:
        errs.append(f"points: {num_obs} observation antennas cannot resolve "
                    f"{num_streams} streams")

    rate = valid.get("frame.symbol_rate_baud")
    sps = valid.get("frame.samples_per_symbol")
    if None not in (rate, sps, control) and abs(rate * sps - control) > 1e-9 * control:
        errs.append("frame: symbol_rate_baud * samples_per_symbol must equal "
                    "control_rate_hz")
    steps = valid.get("staircase.steps_per_period")
    period = valid.get("staircase.period_s")
    if None not in (steps, period, control) and \
            abs(control * period - steps) > 1e-9 * steps:
        errs.append("staircase: control_rate_hz * period_s must equal "
                    "steps_per_period exactly (integer samples per period)")
    return errs


class ValidationError(core.ConfigurationError):
    """A scenario that fails validation; violations lists every reason."""

    def __init__(self, violations: list):
        super().__init__("invalid scenario:\n  " + "\n  ".join(violations))
        self.violations = violations


# ---------------------------------------------------------------------------
# typed scenario
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """Validated, typed view of a scenario dict.

    stream_of_cell assigns each cell (row-major flat index) to a transmit
    stream; it and scheme are None outside the link modes.
    """

    name: str
    mode: str
    carrier_freq_hz: float
    control_rate_hz: float
    oversample: int
    rng_seed: int
    geometry: core.SurfaceGeometry
    points: core.PointSet
    channel: propagation.ChannelModel
    noise_psd: float
    stream_of_cell: np.ndarray | None
    scheme: txrx.ModulationScheme | None
    symbol_rate_baud: float | None
    samples_per_symbol: int | None
    payload_symbols: int | None
    staircase: metasurface.StaircaseRampSpec | None
    sdc_periods: int | None
    quantization: metasurface.QuantizationModel
    spectrum_bins: int | None
    description: str

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        violations, accepted = _walk(data)
        if violations:
            raise ValidationError(violations)
        get = accepted.get

        carrier = float(get("carrier_freq_hz"))
        geometry = core.SurfaceGeometry(
            get("geometry.rows"), get("geometry.cols"), get("geometry.spacing_m"),
            tuple(get("geometry.origin_m")))
        points = get("points")
        points = core.PointSet(np.array([p["position_m"] for p in points], dtype=float),
                               tuple(p["role"] for p in points))
        matrix = get("channel.matrix")
        if matrix is not None:
            raw = np.asarray(matrix, dtype=float)
            matrix = raw[..., 0] + 1j * raw[..., 1]
        channel = propagation.ChannelModel(
            kind=get("channel.kind"),
            wavelength=get("channel.wavelength_m") or core.wavelength_of(carrier),
            matrix=matrix)
        partition = get("partition")
        if partition == "full":
            stream_of_cell = np.zeros(geometry.num_cells, dtype=np.int64)
        elif partition == "left_right":  # stream 1 on the right half columns
            column = np.arange(geometry.num_cells) % geometry.cols
            stream_of_cell = (column >= geometry.cols // 2).astype(np.int64)
        elif partition is not None:
            stream_of_cell = np.asarray(partition, dtype=np.int64)
        else:
            stream_of_cell = None
        modulation = get("modulation")
        staircase = None
        if get("staircase") is not None:
            staircase = metasurface.StaircaseRampSpec(
                period=get("staircase.period_s"),
                steps_per_period=get("staircase.steps_per_period"),
                direction=-1 if get("staircase.direction") == "down" else 1,
                amplitude=get("staircase.amplitude"))
        quant = metasurface.CONTINUOUS
        if get("quantization") is not None:
            quant = metasurface.QuantizationModel(
                phase_levels=get("quantization.phase_levels"),
                amplitude_levels=get("quantization.amplitude_levels"),
                phase_offset=get("quantization.phase_offset_rad"))
        return cls(
            name=get("name"), mode=get("mode"), carrier_freq_hz=carrier,
            control_rate_hz=float(get("control_rate_hz")),
            oversample=int(get("oversample")), rng_seed=int(get("rng_seed")),
            geometry=geometry, points=points, channel=channel,
            noise_psd=float(get("channel.noise_psd")), stream_of_cell=stream_of_cell,
            scheme=None if modulation is None else txrx.get_scheme(modulation),
            symbol_rate_baud=get("frame.symbol_rate_baud"),
            samples_per_symbol=get("frame.samples_per_symbol"),
            payload_symbols=get("frame.payload_symbols"),
            staircase=staircase, sdc_periods=get("sdc_periods"),
            quantization=quant, spectrum_bins=get("spectrum_bins"),
            description=get("description"))

    def frame(self, num_streams: int) -> txrx.FrameSpec:
        return txrx.FrameSpec(num_streams, self.payload_symbols,
                              self.symbol_rate_baud, self.samples_per_symbol)

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

def _payload(sc: Scenario, frame: txrx.FrameSpec, seed) -> tuple:
    """Payload bits (streams x payload x bits per symbol) drawn from seed,
    and the (streams x payload) symbols they map to."""
    bits = np.random.default_rng(seed).integers(
        0, 2, size=(frame.num_streams, frame.payload_length * sc.scheme.bits_per_symbol))
    symbols = txrx.map_bits(bits.ravel(), sc.scheme).reshape(frame.num_streams, -1)
    return bits, symbols


def _ramp_pass(sc: Scenario, incident: core.ComplexEnvelope,
               channels: propagation.ChannelSet, noise_seeds) -> list:
    """The surface pass with every cell on the staircase for the incident's
    duration."""
    ramp = metasurface.compile_staircase(sc.staircase, sc.control_rate_hz,
                                         len(incident) / incident.sample_rate)
    return propagation.surface_pass(
        incident, ramp, np.zeros(channels.num_cells, dtype=np.int64), channels,
        sc.noise_psd, noise_seeds)


def _link_phase(sc: Scenario, channels: propagation.ChannelSet, bits_seed,
                noise_seeds, tag: str) -> txrx.LinkReport:
    """The surface writes a frame onto the feed's tone and the observation
    points receive it; the first point's spectrum goes under tag. Its
    envelopes are freed on return, before an integrated receive phase."""
    frame = sc.frame(int(sc.stream_of_cell.max()) + 1)
    bits, symbols = _payload(sc, frame, bits_seed)
    schedule = txrx.symbols_to_schedule(symbols, frame, sc.quantization)
    carrier = core.tone_envelope(
        frame.num_symbols * frame.samples_per_symbol * sc.oversample,
        sc.envelope_rate(), sc.carrier_freq_hz)
    rx = propagation.surface_pass(carrier, schedule, sc.stream_of_cell,
                                  channels, sc.noise_psd, noise_seeds)
    report = txrx.receive_frame(rx, frame, sc.scheme, bits)
    report.spectra[tag] = spectral.periodogram(rx[0], sc.spectrum_length(len(rx[0])))
    return report


def _receive_phase(sc: Scenario, bits_seed, noise_seed) -> txrx.LinkReport:
    """The first rx point sends a one-stream frame, the surface ramps, and
    the feed antenna, switched to a receive chain, observes."""
    feed_idx = sc.points.indices_with_role("feed")[0]
    obs_idx = [i for i in range(len(sc.points)) if i != feed_idx]
    back_points = core.PointSet(
        sc.points.positions[[obs_idx[0], feed_idx]], ("feed", "rx"))
    channels = propagation.build_channels(sc.geometry, back_points, sc.channel)
    frame = sc.frame(1)
    bits, symbols = _payload(sc, frame, bits_seed)
    incident = txrx.symbols_to_waveform(
        np.concatenate([frame.pilots, symbols], axis=1)[0],
        sc.samples_per_symbol * sc.oversample, sc.envelope_rate(), sc.carrier_freq_hz)
    rx = _ramp_pass(sc, incident, channels, [noise_seed])
    report = txrx.receive_frame(rx, frame, sc.scheme, bits,
                                expected_shift=sc.staircase.frequency_shift)
    report.spectra["sdc_rx0"] = spectral.periodogram(
        rx[0], sc.spectrum_length(len(rx[0])))
    return report


def _harmonic_table(sc: Scenario, spectrum: spectral.Spectrum) -> list:
    ramp = sc.staircase
    L = ramp.steps_per_period
    total = spectrum.total_power
    if total == 0.0:  # a zero channel, or a power that underflowed
        raise txrx.DetectionError("space-down-converted output carries no power",
                                  math.inf)
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


def simulate(sc: Scenario) -> ScenarioResult:
    """Run a validated scenario without writing artifacts.

    The feed lights the surface and the observation points receive. In
    space_down_conversion mode the surface ramps a plain tone; otherwise it
    carries a frame, and in integrated mode the receive phase follows.

    Seed layout, on which a noisy run's bytes depend: rng_seed seeds a
    SeedSequence with 3 + len(points) children. Child 0 draws the
    transmitted payload and child 1 the integrated receive payload.
    Observation point p draws its noise from child 1 + p, or 2 + p in
    integrated mode, and the feed antenna of the receive phase from the last
    child. A child depends only on its index, so each mode draws what it
    drew when it spawned fewer children.
    """
    seeds = np.random.SeedSequence(sc.rng_seed).spawn(3 + len(sc.points))
    channels = propagation.build_channels(sc.geometry, sc.points, sc.channel)
    integrated = sc.mode == "integrated"
    first = 2 if integrated else 1
    noise_seeds = seeds[first:first + channels.num_points]
    if sc.mode == "space_down_conversion":
        carrier = core.tone_envelope(
            sc.sdc_periods * sc.staircase.steps_per_period * sc.oversample,
            sc.envelope_rate(), sc.carrier_freq_hz)
        rx = _ramp_pass(sc, carrier, channels, noise_seeds)
        report = txrx.LinkReport(spectra={"input": spectral.periodogram(carrier),
                                          "output": spectral.periodogram(rx[0])})
    else:
        report = _link_phase(sc, channels, seeds[0], noise_seeds,
                             "tx_rx0" if integrated else "rx0")
    reports = {"link": report}
    if integrated:
        reports = {"transmit": report,
                   "receive": _receive_phase(sc, seeds[1], seeds[-1])}
    summary = _summarize(sc, reports)
    if sc.mode == "space_down_conversion":
        out_spec = report.spectra["output"]
        summary["strongest_line_hz"] = float(
            out_spec.frequencies[int(np.argmax(out_spec.power))])
        summary["harmonics"] = _harmonic_table(sc, out_spec)
    if sc.staircase is not None:
        summary["expected_line_hz"] = sc.staircase.frequency_shift
    return ScenarioResult(sc, reports, summary)


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
            h = report.channel_estimate
            entry["channel_estimate"] = np.stack([h.real, h.imag], axis=-1).tolist()
        out["reports"][key] = entry
    return out


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

# One table per artifact: each field is a column, in file order. The dtypes
# are little-endian, so the bytes of a written file do not depend on the host.
CONSTELLATION_DTYPE = np.dtype([("symbol_index", "<i8"), ("i", "<f8"), ("q", "<f8"),
                                ("ref_i", "<f8"), ("ref_q", "<f8")])
SPECTRUM_DTYPE = np.dtype([("freq_hz", "<f8"), ("power_linear", "<f8"),
                           ("power_db", "<f8")])
ARTIFACT_DTYPES = {"constellation_": CONSTELLATION_DTYPE, "spectrum_": SPECTRUM_DTYPE}
CSV_BLOCK_ROWS = 4096


def _table(dtype: np.dtype, columns) -> np.ndarray:
    """A structured array whose fields, in dtype order, hold columns."""
    table = np.empty(len(columns[0]), dtype)
    for name, column in zip(dtype.names, columns):
        table[name] = column
    return table


def _unlinked(path: Path) -> Path:
    """path, with any file already there removed so that a new one is written.

    Rewriting a file in place truncates it, and ext4 (auto_da_alloc) then
    starts writing the new contents to disk when the file is closed, so a
    rerun into the same directory would wait on the disk once per
    artifact, for as long as the disk is busy. A new file stays in the
    page cache like any other write.
    """
    path.unlink(missing_ok=True)
    return path


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
    """Write each constellation and spectrum as a .npy table, then summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    single = len(result.reports) == 1
    for key, report in result.reports.items():
        prefix = "" if single else f"{key}_"
        for s, (d, r) in enumerate(zip(report.detected_symbols,
                                       report.reference_symbols)):
            path = _unlinked(out / f"constellation_{prefix}{s}.npy")
            np.save(path, _table(CONSTELLATION_DTYPE, (np.arange(len(d)), d.real,
                                                       d.imag, r.real, r.imag)),
                    allow_pickle=False)
            paths.append(path)
        for tag, spectrum in report.spectra.items():
            path = _unlinked(out / f"spectrum_{tag}.npy")
            with np.errstate(divide="ignore"):
                power_db = 10.0 * np.log10(spectrum.power)
            np.save(path, _table(SPECTRUM_DTYPE, (spectrum.frequencies, spectrum.power,
                                                  power_db)),
                    allow_pickle=False)
            paths.append(path)
    result.summary["artifacts"] = sorted(p.name for p in paths) + ["summary.json"]
    summary_path = _unlinked(out / "summary.json")
    summary_path.write_text(json.dumps(result.summary, indent=2, sort_keys=True)
                            + "\n")
    paths.append(summary_path)
    result.artifact_paths = paths
    return paths


def export_csv(out_dir) -> list:
    """Write <stem>.csv next to each .npy artifact in out_dir; returns the paths.

    The header is the table's field names and each row formats integer
    fields with %d and float fields with %.17g, so a float64 reads back
    exactly. Raises ConfigurationError naming out_dir when it is missing or
    holds no artifact, and naming the file when an artifact cannot be read
    or has another layout.
    """
    out = Path(out_dir)
    if not out.is_dir():
        raise core.ConfigurationError(f"{str(out)!r} is not a directory")
    tables = [(npy, dtype) for npy in sorted(out.glob("*.npy"))
              for prefix, dtype in ARTIFACT_DTYPES.items()
              if npy.name.startswith(prefix)]
    if not tables:
        raise core.ConfigurationError(
            f"{str(out)!r} holds no constellation_*.npy or spectrum_*.npy artifact")
    paths = []
    for npy, dtype in tables:
        try:
            table = np.load(npy, allow_pickle=False)
        except (ValueError, EOFError) as exc:  # truncated, or not .npy at all
            raise core.ConfigurationError(f"{str(npy)!r} cannot be read: {exc}")
        if table.dtype != dtype or table.ndim != 1:
            raise core.ConfigurationError(
                f"{str(npy)!r} is not a metalink artifact: expected a 1-D "
                f"{dtype} table, found a {table.shape} {table.dtype} array")
        path = npy.with_suffix(".csv")
        row_fmt = ",".join("%d" if dtype[n].kind == "i" else "%.17g"
                           for n in dtype.names) + "\n"
        _write_csv(path, ",".join(dtype.names), row_fmt,
                   [table[n] for n in dtype.names])
        paths.append(path)
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
