"""Scenario files and their schema: loading, overrides, validation, types.

A scenario is a JSON object with explicit units in its field names. FIELDS
below is its schema: each row names one field by its dotted path, the
values it accepts, its default, and the modes and channel kinds that read
it. validate walks that table and then checks the rules that tie fields
together; Scenario.from_dict builds the scenario's objects from the values
and defaults that walk accepted.
An absent field and a null one mean the same thing. A non-null field that
the mode or the channel kind does not read, and a key the table does not
name, are reported rather than ignored; so is a key that a scenario file
repeats within one object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import core, metasurface, propagation, txrx

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
    """Load a scenario dict from a mapping, a JSON file path, or a bundled name.

    A mapping is returned as it is given: validate names any value in it
    that the schema cannot take, and neither apply_overrides nor
    Scenario.from_dict writes into it or keeps its lists. A file that is
    not readable UTF-8 JSON, or that repeats a key within one object,
    raises ConfigurationError naming the file.
    """
    if isinstance(source, dict):
        return source
    name = str(source)
    path = Path(name)
    if not path.is_file():
        stem = name[:-5] if name.endswith(".json") else name
        if stem not in bundled_scenario_names():
            raise core.ConfigurationError(
                f"no scenario file or bundled scenario named {name!r}")
        path = resources.files("metalink.scenarios") / f"{stem}.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8/JSON
        raise core.ConfigurationError(
            f"scenario {name!r} cannot be read as JSON: {exc}") from None
    if not isinstance(data, dict):
        raise core.ConfigurationError(f"scenario {name!r} must be a JSON object")
    return data


def _unique_keys(pairs: list) -> dict:
    """object_pairs_hook for json.loads, which keeps a repeated key's last value."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise core.ConfigurationError(f"key {repeated!r} is repeated in one object")
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

    A key applies after every key that is a dotted prefix of it, so a child
    key sets its value inside an object its parent key gives, whatever
    their order. data is left as it is: the result copies the objects on
    each override's path and shares every other value with data.
    """
    out = dict(data)
    # the objects made here, by id; holding them keeps their ids unique
    copies = {id(out): out}
    for dotted, value in sorted(overrides.items(), key=lambda kv: kv[0].count(".")):
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

    check takes any non-null value and never raises; rule says what it accepts.
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


def _one_of(choices):
    return lambda v: isinstance(v, str) and v in choices


# a list's checks, which accept a tuple wherever they accept a list
def _list_of(each):
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(each, v))


def _numbers(n):
    return lambda v: isinstance(v, (list, tuple)) and len(v) == n and all(map(_is_num, v))


_point3 = _numbers(3)


def _is_point(p) -> bool:
    return (isinstance(p, dict) and p.keys() == {"position_m", "role"}
            and _point3(p["position_m"]) and isinstance(p["role"], str))


def _is_matrix(m) -> bool:
    """Rows of one width, of [re, im] pairs."""
    return _list_of(_list_of(_numbers(2)))(m) and len({len(row) for row in m}) == 1


def _is_partition(v) -> bool:
    return _one_of(("full", "left_right"))(v) or _list_of(_int_from(0))(v)


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
    Field("mode", _one_of(MODES), f"must be one of {MODES}"),
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
    Field("points", _list_of(_is_point),
          "must be a non-empty list of {position_m: [x, y, z], role: string}; "
          "role 'feed' marks the feed antenna, every other point observes"),
    Field("channel", _is_object, "must be an object {kind, noise_psd, ...}"),
    Field("channel.kind", _one_of(KINDS), f"must be one of {KINDS}"),
    Field("channel.noise_psd", lambda v: _is_num(v) and v >= 0,
          "must be a number >= 0 (noise variance per received sample)", 0.0),
    Field("channel.matrix", _is_matrix, "must be [[[re, im] per point] per cell]",
          kinds=("explicit_matrix",)),
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
    Field("staircase.direction", _one_of(("down", "up")),
          "must be 'down' or 'up'", "down"),
    Field("staircase.amplitude", lambda v: _is_num(v) and 0 <= v <= 1,
          "must lie in [0, 1]", 1.0),
    Field("sdc_periods", _int_from(1),
          "must be an integer >= 1 (tone duration in staircase periods)",
          modes=("space_down_conversion",)),
    Field("spectrum_bins", _int_from(2),
          "must be an integer >= 2 (cap on the artifact DFT length)", None,
          modes=LINK_MODES),
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
    stream; it and scheme are None outside the link modes. The frame's
    symbol_rate_baud is validated but not kept: a symbol lasts
    samples_per_symbol control steps, which the rate rule ties to it.
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
    samples_per_symbol: int | None
    payload_symbols: int | None
    staircase: metasurface.StaircaseRampSpec | None
    sdc_periods: int | None
    quantization: metasurface.QuantizationModel
    spectrum_bins: int | None

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
            kind=get("channel.kind"), wavelength=core.wavelength_of(carrier), matrix=matrix)
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
            samples_per_symbol=get("frame.samples_per_symbol"),
            payload_symbols=get("frame.payload_symbols"),
            staircase=staircase, sdc_periods=get("sdc_periods"),
            quantization=quant, spectrum_bins=get("spectrum_bins"))

    def envelope_rate(self) -> float:
        return self.oversample * self.control_rate_hz

    def ramp_line_hz(self) -> float:
        """The staircase's line: each of its L values (ramp_period) holds a control step."""
        return (self.staircase.direction * self.control_rate_hz
                / self.staircase.steps_per_period)

    def spectrum_length(self, available: int) -> int:
        if self.spectrum_bins is None:
            return available
        return min(self.spectrum_bins, available)
