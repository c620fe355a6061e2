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

import functools
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
LINE_TIE = 1e-9  # relative power within which two spectral lines tie
BLOCK = 65536  # noise values drawn, or .npy table rows written, at a time
KINDS = propagation.CHANNEL_KINDS


# ---------------------------------------------------------------------------
# loading and overrides
# ---------------------------------------------------------------------------

def bundled_scenario_names() -> list:
    files = resources.files("metalink.scenarios")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_scenario(source) -> dict:
    """Load a scenario dict from a mapping, a JSON file path, or a bundled name.

    A mapping is deep-copied through JSON; one that holds a value JSON
    cannot (an array, say), contains itself or nests too deeply for the
    JSON codec raises ConfigurationError saying which; a file that is not
    readable UTF-8 JSON raises one naming the file.
    """
    if isinstance(source, dict):
        try:
            return json.loads(json.dumps(source))  # deep copy, JSON-clean
        except (TypeError, ValueError, RecursionError) as exc:
            raise core.ConfigurationError(
                f"scenario must hold only JSON values: {exc}") from None
    name = str(source)
    path = Path(name)
    if not path.is_file():
        stem = name[:-5] if name.endswith(".json") else name
        if stem not in bundled_scenario_names():
            raise core.ConfigurationError(
                f"no scenario file or bundled scenario named {name!r}")
        path = resources.files("metalink.scenarios") / f"{stem}.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8/JSON
        raise core.ConfigurationError(
            f"scenario {name!r} cannot be read as JSON: {exc}") from None
    if not isinstance(data, dict):
        raise core.ConfigurationError(f"scenario {name!r} must be a JSON object")
    return data


# the characters a JSON text can start with, after its leading whitespace
_JSON_STARTS = frozenset('{["-0123456789tfnNI')


def _override_value(dotted: str, value):
    """The JSON literal a string spells, or the value as given. A string
    that no JSON text starts like, such as "QPSK", is kept without a parse;
    one nested too deeply to parse is a ConfigurationError naming dotted."""
    if isinstance(value, str) and value.lstrip(" \t\n\r")[:1] in _JSON_STARTS:
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            pass  # keep as plain string
        except RecursionError:
            raise core.ConfigurationError(
                f"override {dotted!r} nests too deeply to parse") from None
    return value


def apply_overrides(data: dict, overrides: dict) -> dict:
    """Apply {"dotted.key": value} overrides; values may be JSON literals.

    data is left as it is: the result copies the objects on each
    override's path and shares every other value with data.
    """
    out = dict(data)
    # the objects made here, by id; holding them keeps their ids unique
    copies = {id(out): out}
    for dotted, value in overrides.items():
        node = out
        *parents, leaf = dotted.split(".")
        for part in parents:
            child = node.get(part)
            if child is None:  # absent or null: start an object
                child = {}
            elif not isinstance(child, dict):
                raise core.ConfigurationError(
                    f"override {dotted!r} descends into a non-object field")
            elif copies.get(id(child)) is not child:
                child = dict(child)
            copies[id(child)] = child
            node[part] = child
            node = child
        node[leaf] = _override_value(dotted, value)
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
    return isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_num, v))


def _is_point(p) -> bool:
    return (isinstance(p, dict) and p.keys() == {"position_m", "role"}
            and _point3(p["position_m"]) and isinstance(p["role"], str))


def _is_matrix(m) -> bool:
    if not (isinstance(m, list) and m and isinstance(m[0], list)):
        return False
    width = len(m[0])
    for row in m:
        if not (isinstance(row, list) and len(row) == width):
            return False
        for e in row:
            if not (isinstance(e, list) and len(e) == 2
                    and _is_num(e[0]) and _is_num(e[1])):
                return False
    return True


def _is_partition(v) -> bool:
    return v in ("full", "left_right") or (
        isinstance(v, list) and len(v) > 0 and all(_is_int(s) and s >= 0 for s in v))


def _is_object(v) -> bool:
    return isinstance(v, dict)


# parents come before their children, and mode and channel.kind before the
# fields they gate
FIELDS = (
    Field("name", lambda v: (isinstance(v, str) and v not in ("", ".", "..")
                             and not any(c in v for c in "/\\\0")),
          "must be a non-empty string without '/', '\\' or NUL, other than '.' "
          "and '..' (it names the default output directory)"),
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
    errs = [f"{key}: must be at most 2**53 (it is counted in float64)" for key in (
        "geometry.rows", "geometry.cols", "sdc_periods", "frame.payload_symbols",
        "quantization.phase_levels", "quantization.amplitude_levels")
        if (valid.get(key) or 0) > 2 ** 53]
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
        if None not in (num_cells, spacing, origin) and max(rows, cols) <= 2 ** 53:
            # a zero distance, as build_channels finds it, is a zero square on
            # each axis; the cells are every (x of a column, y of a row, z)
            errs.extend(f"points[{i}]: coincides with a unit-cell position"
                        for i, p in enumerate(points)
                        if all(_on_axis(float(v), float(o), n, spacing) for v, o, n in
                               zip(p["position_m"], origin, (cols, rows, 1))))

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

    oversample = valid.get("oversample")
    if None not in (oversample, control) and _product(oversample, control) == math.inf:
        errs.append("oversample: envelope rate oversample * control_rate_hz overflows")
    rate = valid.get("frame.symbol_rate_baud")
    sps = valid.get("frame.samples_per_symbol")
    if None not in (rate, sps, control) and \
            abs(_product(rate, sps) - control) > 1e-9 * control:
        errs.append("frame: symbol_rate_baud * samples_per_symbol must equal "
                    "control_rate_hz")
    steps = valid.get("staircase.steps_per_period")
    period = valid.get("staircase.period_s")
    if None not in (steps, period, control) and (
            _product(steps, 1.0) == math.inf or abs(control * period - steps) > 1e-9 * steps):
        errs.append("staircase: control_rate_hz * period_s must equal "
                    "steps_per_period exactly (integer samples per period)")
    return errs


def _on_axis(v: float, o: float, n: int, s: float) -> bool:
    """Whether (c - v) * (c - v) == 0.0 for some value c of the axis of n
    values about o at pitch s, each formed as core.cell_axes forms it.
    The values rise with their index, so those that close to v are
    consecutive, and the index nearest v, taken in floats, is one of them or
    next to one."""
    k = round(min(max((v - o) / s + (n - 1) / 2, 0.0), n - 1.0))
    return any((c - v) * (c - v) == 0.0 for c in (
        o + (m - (n - 1) / 2) * s for m in range(max(k - 1, 0), min(k + 2, n))))


def _product(a, b) -> float:
    """a * b, or inf where an integer factor is too large for a float."""
    try:
        return a * b
    except OverflowError:
        return math.inf


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

    def ramp_line_hz(self) -> float:
        """The staircase's line: compile_staircase ramps L control steps a period."""
        return (self.staircase.direction * self.control_rate_hz
                / self.staircase.steps_per_period)

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

def _rng(sc: Scenario, index: int) -> np.random.Generator:
    """Frame index's generator, from child index of SeedSequence(sc.rng_seed)
    built alone, as spawn would build it."""
    return np.random.default_rng(np.random.SeedSequence(sc.rng_seed, spawn_key=(index,)))


def _payload(sc: Scenario, frame: txrx.FrameSpec, rng) -> np.ndarray:
    """The payload's (streams x payload) bit words, one integers draw from
    rng in scheme.word_weights.dtype."""
    return rng.integers(0, len(sc.scheme.points), (frame.num_streams, frame.payload_length),
                        dtype=sc.scheme.word_weights.dtype)


def _normal_pairs(rng, count: int, variance: float) -> np.ndarray:
    """count i.i.d. circular complex Gaussians of that variance, each drawn
    from rng as a pair of standard normals, the real part first."""
    noise = np.empty(count, dtype=np.complex128)
    rng.standard_normal(out=noise.view(np.float64))
    noise *= np.sqrt(variance / 2.0)
    return noise


def _rotation(num: int, den: int, count: int) -> np.ndarray:
    """exp(-2j*pi*n*num/den) for n < count, den > 0. Each phase drops its
    whole turns in integers, n * num mod den, before it is rounded, so it is
    within half an ulp of exact in [0, 1) whatever n; they repeat every
    den / gcd(num, den) samples, from _rotation_head."""
    head = _rotation_head(num, den, min(count, den // math.gcd(num, den)))
    return head[np.arange(count) % len(head)]


@functools.lru_cache(maxsize=64)
def _rotation_head(num: int, den: int, length: int) -> np.ndarray:
    """The first length values of _rotation, at most a period (1: all ones);
    n * num (n < den) is exact in int64 while den * |num| < 2**63, checked."""
    if length <= 1:
        return core.read_only(np.ones(1, dtype=np.complex128))
    if den * abs(num) >= 1 << 63:
        raise core.ConfigurationError(
            f"a ramp period of {den} samples is too long to derotate exactly")
    return core.read_only(
        np.exp(-2j * np.pi * (np.arange(length, dtype=np.int64) * num % den / den)))


def _held(row: np.ndarray, sent, count: int, steps: int, hold: int) -> np.ndarray:
    """count symbols of samples from one row of weights: value j of symbol
    k is sent[k] * row[(k * steps + j) mod len(row)], held for hold samples.
    sent is one number for all symbols, or one per symbol (at least count).
    The samples are written once, into a fresh array."""
    samples = np.empty((count, steps, hold), dtype=np.complex128)
    np.multiply(np.reshape(sent, (-1, 1, 1))[:count],
                row[np.arange(count * steps) % len(row)].reshape(count, steps, 1),
                out=samples)
    return samples.reshape(-1)


def _add_noise(sc: Scenario, rng, means, head, num: int, den: int) -> None:
    """Add a frame's receiver noise, drawn from rng, in place to point 0's
    head samples and to the (points x symbols) per-symbol means; none when
    noise_psd is 0.

    Each point's received samples carry i.i.d. circular complex Gaussian
    noise of variance noise_psd, drawn as _normal_pairs. First one value per
    head sample, in order: the head adds it, and each symbol the head covers
    adds the mean of its samples' noise, derotated by exp(-2j*pi*n*num/den)
    at sample n. The mean of sps samples of that noise is one circular
    Gaussian of variance noise_psd / sps, so then each remaining mean gets
    one draw of it: point 0's uncovered symbols, then each other point's.

    The values are drawn and added one block of at most BLOCK values, whole
    symbols on the head, at a time into one reused buffer: a generator
    draws the same values in blocks as at once, so no noise array of the
    head's or the means' size is formed.
    """
    if sc.noise_psd == 0.0:
        return
    sps = sc.samples_per_symbol * sc.oversample
    covered = len(head) // sps
    symbols = max(1, BLOCK // sps)  # whole symbols of head noise a block
    buffer = np.empty(max(min(covered, symbols) * sps, min(means.shape[1], BLOCK)),
                      dtype=np.complex128)
    scale = np.sqrt(sc.noise_psd / 2.0)
    # sample i of symbol k is derotated by start[k] * within[i]
    within, start = _rotation(num, den, sps), _rotation(num * sps, den, covered)
    for k in range(0, covered, symbols):
        count = min(symbols, covered - k)
        noise = buffer[:count * sps]
        rng.standard_normal(out=noise.view(np.float64))
        noise *= scale
        means[0, k:k + count] += np.einsum(
            "ki,i->k", noise.reshape(count, sps), within) * (start[k:k + count] / sps)
        head[k * sps:(k + count) * sps] += noise
    scale = np.sqrt(sc.noise_psd / sps / 2.0)
    for row in (means[0, covered:], *means[1:]):
        for i in range(0, len(row), BLOCK):
            noise = buffer[:min(BLOCK, len(row) - i)]
            rng.standard_normal(out=noise.view(np.float64))
            noise *= scale
            row[i:i + len(noise)] += noise


def _frame(sc: Scenario, channels: propagation.ChannelSet, num_streams: int, rng,
           tag: str, ramp: bool = False) -> txrx.LinkReport:
    """Send one frame through the surface to the observation points of
    channels and detect it there; the first point's spectrum goes under tag.
    The frame draws its payload (_payload) and then its noise (_add_noise)
    from rng, and nothing else.

    A link frame (ramp False) writes num_streams streams of symbols onto the
    feed's unit tone, so symbol k reaches point p as weights[p, k] =
    sum_s G[s, p] * x[s, k] (propagation.pass_weights), and a symbol holds
    one value, its mean. In the receive phase (ramp True) one stream sent[k]
    reaches the ramping surface, whose one-period weights (_ramp_weights)
    are w[p, m] = w[p, 0] * exp(2j*pi*direction*m/L) to rounding. Sample
    n = (k * steps + j) * hold + i of symbol k (j < steps, i < hold) is
    sent[k] * w[p, (k * steps + j) mod L], derotated by exp(-2j*pi*n*num/den),
    num/den = direction / (L * hold), the ramp's own line
    (Scenario.ramp_line_hz) whatever period_s rounds to. Each step's phase
    cancels that of its derotation, so every mean is sent[k] * w[p, 0] * rho,
    rho the mean of exp(-2j*pi*i*num/den) over i < hold (_rotation, its
    phases exact); |rho| = sin(pi/L) / (hold sin(pi/(L hold))) is the
    ramp's conversion gain.

    Only point 0's first ceil(spectrum_length / sps) symbols, the spectrum
    head, are written (_held); _add_noise then adds the noise to the head
    and to the means. The head's first spectrum_length samples are then
    transformed in place and their power_spectrum taken, so the head holds
    no second copy, and it is freed before detect runs, as are the receive
    phase's sent symbols, which detect forms again from the words.
    """
    frame = sc.frame(num_streams)
    words = _payload(sc, frame, rng)
    rate, sps = sc.envelope_rate(), sc.samples_per_symbol * sc.oversample
    num_symbols = frame.num_symbols
    if ramp:
        weights, hold = _ramp_weights(sc, channels)
        num, den = sc.staircase.direction, sc.staircase.steps_per_period * hold
    else:
        schedule = txrx.symbols_to_schedule(words, frame, sc.scheme, sc.quantization)
        weights, hold = propagation.pass_weights(rate, num_symbols * sps, schedule,
                                                 sc.stream_of_cell, channels)
        del schedule  # freed before the means are formed
        num, den = 0, 1
    sent = np.concatenate([frame.pilots[0], sc.scheme.points[words[0]]]) if ramp else 1.0
    length = sc.spectrum_length(num_symbols * sps)
    head = _held(weights[0], sent, -(-length // sps), sps // hold, hold)
    means = weights
    if ramp:
        means = weights[:, :1] * _rotation(num, den, hold).mean() * sent
    _add_noise(sc, rng, means, head, num, den)
    bins = head[:length]
    np.fft.fft(bins, out=bins)  # in place: the head becomes its DFT
    spectrum = spectral.power_spectrum(bins, rate)
    del head, bins, sent  # freed before detection
    report = txrx.detect(means, frame, sc.scheme, words)
    report.spectra[tag] = spectrum
    return report


def _ramp_weights(sc: Scenario, channels: propagation.ChannelSet) -> tuple:
    """(weights, hold) of one ramp period at the observation points of
    channels: weights[p, m] is point p's gain while step m of the staircase
    holds, for hold samples, and the ramp repeats them every L steps."""
    L = sc.staircase.steps_per_period
    one_period = metasurface.compile_staircase(sc.staircase, sc.control_rate_hz,
                                               L / sc.control_rate_hz)
    return propagation.pass_weights(sc.envelope_rate(), L * sc.oversample, one_period,
                                    np.zeros(channels.num_cells, dtype=np.int64), channels)


def _harmonic_table(sc: Scenario, spectrum: spectral.Spectrum) -> list:
    L = sc.staircase.steps_per_period
    total = spectrum.total_power
    if total == 0.0:  # a zero channel, or a power that underflowed
        raise txrx.DetectionError("space-down-converted output carries no power",
                                  math.inf)
    indices = [1 + k * L for k in range(-3, 4)]
    rows = []
    line, nyquist = sc.ramp_line_hz(), sc.envelope_rate() / 2
    for q, amplitude in zip(indices, spectral.staircase_harmonics(L, indices)):
        freq = q * line
        if not -nyquist < freq <= nyquist:
            continue  # the periodogram's bins span (-fs/2, fs/2]
        predicted = float(amplitude ** 2)
        measured = spectral.line_power(spectrum, freq) / total
        rows.append({"harmonic_index": q, "freq_hz": freq,
                     "power_fraction": measured,
                     "predicted_fraction": predicted})
    return rows


def simulate(sc: Scenario) -> ScenarioResult:
    """Run a validated scenario without writing artifacts.

    The feed lights the surface and the observation points receive. In
    space_down_conversion mode the surface ramps a plain tone; otherwise it
    carries a frame (_frame), and in integrated mode the receive phase
    follows, over the transmit phase's channels reversed: identity and
    free-space gains are reciprocal.

    Draw order, on which a run's bytes depend: frame f draws everything
    from its own generator, _rng(sc, f), built only when it draws. Frame 0
    is the link frame, the integrated transmit phase or the SDC capture;
    frame 1 is the integrated receive phase. A frame draws its payload
    first (_payload), so the payload depends on neither noise_psd nor
    spectrum_bins, and then, when noise_psd > 0, its noise (_add_noise).

    SDC mode writes one ramp period of point 0's envelope: the weights of
    one period (_ramp_weights) on the feed's unit tone (_held). Its capture
    is that period repeated P = sdc_periods times, whose DFT is P times
    the period's DFT on every P-th bin and 0 on every other. So a noiseless
    output spectrum is the period's periodogram on every P-th bin and
    exactly 0 elsewhere. A noisy one draws the capture's per-sample noise
    from frame 0, as _normal_pairs, transforms it in place, adds P times
    the period's DFT to every P-th bin of the noise's DFT, and takes their
    power_spectrum. Its input
    spectrum, the unit tone's, is in closed form: power 1 in the 0 Hz bin
    and 0 in every other.
    """
    channels = propagation.build_channels(sc.geometry, sc.points, sc.channel)
    integrated = sc.mode == "integrated"
    if sc.mode == "space_down_conversion":
        weights, hold = _ramp_weights(sc, propagation.ChannelSet(
            channels.feed_gains, channels.obs_gains[:, :1]))
        period = _held(weights[0], 1.0, 1, weights.shape[1], hold)
        rate, periods = sc.envelope_rate(), sc.sdc_periods
        length = periods * len(period)
        if sc.noise_psd > 0.0:
            bins = _normal_pairs(_rng(sc, 0), length, sc.noise_psd)
            np.fft.fft(bins, out=bins)  # in place: the noise becomes its DFT
            bins[::periods] += periods * np.fft.fft(period)
            output = spectral.power_spectrum(bins, rate)
            del bins  # freed before the input spectrum
        else:
            one = spectral.periodogram(core.ComplexEnvelope(period, rate, sc.carrier_freq_hz))
            output = spectral.Spectrum(np.zeros(length), rate / length)
            # every periods-th bin, from the one at one's lowest frequency
            output.power[one.first_bin * periods - output.first_bin::periods] = one.power
        tone = np.zeros(length)
        tone[-output.first_bin] = 1.0
        report = txrx.LinkReport(spectra={
            "input": spectral.Spectrum(tone, rate / length), "output": output})
    else:
        report = _frame(sc, channels, int(sc.stream_of_cell.max()) + 1, _rng(sc, 0),
                        "tx_rx0" if integrated else "rx0")
    reports = {"link": report}
    if integrated:
        back = propagation.ChannelSet(channels.obs_gains[:, 0],
                                      channels.feed_gains[:, np.newaxis])
        reports = {"transmit": report,
                   "receive": _frame(sc, back, 1, _rng(sc, 1), "sdc_rx0", ramp=True)}
    summary = _summarize(sc, reports)
    if sc.mode == "space_down_conversion":
        # tied lines (a two-step ramp's at +-shift) go to the expected one
        out_spec = report.spectra["output"]
        tied = np.flatnonzero(out_spec.power >= (1.0 - LINE_TIE) * out_spec.power.max())
        lines = (out_spec.first_bin + tied) * out_spec.resolution
        summary["strongest_line_hz"] = float(
            lines[np.argmin(np.abs(lines - sc.ramp_line_hz()))])
        summary["harmonics"] = _harmonic_table(sc, out_spec)
    if sc.staircase is not None:
        summary["expected_line_hz"] = sc.ramp_line_hz()
    return ScenarioResult(sc, reports, summary)


def _summarize(sc: Scenario, reports: dict) -> dict:
    out = {"scenario": sc.name, "mode": sc.mode, "rng_seed": sc.rng_seed,
           "reports": {}}
    for key, report in reports.items():
        entry = {
            "streams": report.num_streams,
            "evm_percent": report.evm_percent.tolist(),
            "ber": report.ber.tolist(),
            "condition_number": report.condition_number,
        }
        if report.channel_estimate is not None:
            entry["channel_estimate"] = [[[h.real, h.imag] for h in row]
                                         for row in report.channel_estimate.tolist()]
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


def _write_table(path: Path, dtype: np.dtype, length: int, fill) -> None:
    """Write a table of length rows of dtype to path as np.save writes it:
    the header for the whole shape, then the rows, BLOCK at a time through
    one block buffer, which fill(rows, start) fills with the rows from
    start on. No whole table is formed."""
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
              "shape": (length,)}
    block = np.empty(min(length, BLOCK), dtype)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for start in range(0, length, BLOCK):
            rows = block[:min(BLOCK, length - start)]
            fill(rows, start)
            rows.tofile(fh)


def _constellation_rows(detected: np.ndarray, reference: np.ndarray):
    """fill for _write_table: the CONSTELLATION_DTYPE rows of one stream."""
    columns = (detected.real, detected.imag, reference.real, reference.imag)

    def fill(rows, start):
        stop = start + len(rows)
        rows["symbol_index"] = np.arange(start, stop)
        for name, column in zip(CONSTELLATION_DTYPE.names[1:], columns):
            rows[name] = column[start:stop]
    return fill


def _spectrum_rows(spectrum: spectral.Spectrum):
    """fill for _write_table: spectrum's SPECTRUM_DTYPE rows, its bin
    centres, its power, and 10 log10 of the power, formed in its field from
    the power's contiguous slice."""
    def fill(rows, start):
        stop = start + len(rows)
        first = spectrum.first_bin
        rows["freq_hz"] = np.arange(first + start, first + stop) * spectrum.resolution
        power = spectrum.power[start:stop]
        rows["power_linear"] = power
        with np.errstate(divide="ignore"):
            np.log10(power, out=rows["power_db"])
        rows["power_db"] *= 10.0
    return fill


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
    """Write each constellation and spectrum as a .npy table, then summary.json.

    Each table is written BLOCK rows at a time (_write_table), so writing
    holds no table, index or frequency grid of a frame's length; the files
    are those np.save writes of the whole tables, byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    single = len(result.reports) == 1
    for key, report in result.reports.items():
        prefix = "" if single else f"{key}_"
        for s, (d, r) in enumerate(zip(report.detected_symbols,
                                       report.reference_symbols)):
            path = _unlinked(out / f"constellation_{prefix}{s}.npy")
            _write_table(path, CONSTELLATION_DTYPE, len(d), _constellation_rows(d, r))
            paths.append(path)
        for tag, spectrum in report.spectra.items():
            path = _unlinked(out / f"spectrum_{tag}.npy")
            _write_table(path, SPECTRUM_DTYPE, len(spectrum.power), _spectrum_rows(spectrum))
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
        except (ValueError, EOFError, OSError) as exc:  # truncated, not .npy, a directory
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


def run_scenario(source, out_dir, overrides: dict | None = None) -> ScenarioResult:
    """Load, validate, simulate, and write artifacts; the CLI entry path."""
    data = load_scenario(source)
    if overrides:
        data = apply_overrides(data, overrides)
    sc = Scenario.from_dict(data)
    result = simulate(sc)
    write_artifacts(result, out_dir)
    return result
