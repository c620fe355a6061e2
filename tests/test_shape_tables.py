"""The tables of values that depend only on a frame's shape.

Two live in a functools.lru_cache of a constant size, the pilots per
stream count (txrx._pilots) and the quantized pilots and points
(txrx._quantized_tables). They hold read-only arrays, so a run with a warm
cache writes what a run with a cold one writes; neither grows with the
frame's length. Derotation periods are formed per run, at exactly the size
a run asks for, so a run holds nothing after it ends. Quantized frames
look their coefficients up by bit word, which equals quantizing every
coefficient on its own, bit for bit, and costs what a continuous frame
costs.
"""

import ast
import importlib.util
import inspect
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import metalink
from metalink import (artifacts, core, metasurface, propagation, scenario as scen, schema,
                      spectral, txrx)

import oracles

ROOT = Path(__file__).resolve().parent.parent
MODULES = (core, metasurface, propagation, schema, scen, artifacts, spectral, txrx)
CACHES = {f"{module.__name__}.{name}": value for module in MODULES
          for name, value in vars(module).items() if hasattr(value, "cache_info")}


def _workloads():
    """bench/workloads.py as a module; it imports the standard library only."""
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


def _clear_caches():
    for cache in CACHES.values():
        cache.cache_clear()


def _run_all(out_dir: Path) -> dict:
    """The bundled scenarios and param_sweep seed 1, written under out_dir;
    {relative path: bytes} of every file written."""
    for name in schema.bundled_scenario_names():
        scen.run_scenario(name, out_dir / name)
    sweep = _workloads().WORKLOADS["param_sweep"]
    for index, case in enumerate(sweep.build(metalink, 1)):
        result = sweep.run(metalink, case, None)
        artifacts.write_artifacts(result, out_dir / f"sweep-{index:03d}")
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_the_caches_are_the_expected_ones():
    assert set(CACHES) == {"metalink.txrx._pilots", "metalink.txrx._quantized_tables"}


def test_cold_and_warm_caches_write_the_same_bytes(tmp_path):
    _clear_caches()
    cold = _run_all(tmp_path / "cold")
    assert all(cache.cache_info().hits for cache in CACHES.values())
    warm = _run_all(tmp_path / "warm")
    assert cold.keys() == warm.keys()
    assert [name for name in cold if cold[name] != warm[name]] == []


def test_every_cache_has_a_constant_size():
    for name, cache in CACHES.items():
        module = inspect.getmodule(cache)
        tree = ast.parse(inspect.getsource(module))
        decorators = [d for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == name.rpartition(".")[2]
                      for d in node.decorator_list]
        assert len(decorators) == 1, name
        (keyword,) = decorators[0].keywords
        assert keyword.arg == "maxsize" and isinstance(keyword.value, ast.Constant)
        assert cache.cache_info().maxsize == keyword.value.value > 0, name


def _arrays(value):
    """Every array a cached value holds."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, core.CoefficientSchedule):
        yield value.values


def _recorded(monkeypatch, runs) -> dict:
    """{cache name: [(args, value)]} of every call of each cache while runs
    runs, from cold caches."""
    _clear_caches()
    calls = {name: [] for name in CACHES}
    for name, cache in CACHES.items():
        def record(*args, _cache=cache, _calls=calls[name]):
            value = _cache(*args)
            _calls.append((args, value))
            return value
        module = inspect.getmodule(cache)
        monkeypatch.setattr(module, name.rpartition(".")[2], record)
    runs()
    monkeypatch.undo()
    return calls


def _sweep_and_bundled():
    sweep = _workloads().WORKLOADS["param_sweep"]
    for case in sweep.build(metalink, 2):
        sweep.run(metalink, case, None)
    for name in schema.bundled_scenario_names():
        scen.simulate(scen.Scenario.from_dict(scen.load_scenario(name)))


def test_every_cached_array_is_read_only(monkeypatch):
    calls = _recorded(monkeypatch, _sweep_and_bundled)
    assert all(calls.values()), [name for name, c in calls.items() if not c]
    for name, recorded in calls.items():
        for args, value in recorded:
            arrays = list(_arrays(value))
            assert arrays, name
            assert not any(a.flags.writeable for a in arrays), (name, args)


def test_a_rotation_holds_exactly_the_values_asked_for():
    # a 39 000-value period over 40 000 values: a cyclic copy of two whole
    # periods, sliced, held 78 000
    got = scen._rotation(1, 39_000, 40_000)
    assert got.base is None and got.shape == (40_000,)
    assert np.array_equal(got, oracles.exact_rotation(np.arange(40_000),
                                                      Fraction(1, 39_000)))
    # a period far too long to form whole costs only the values asked for
    tracemalloc.start()
    try:
        got = scen._rotation(1, 1 << 40, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (9,) and peak < 4096, f"peak {peak} bytes"


def test_a_runs_memory_does_not_depend_on_the_runs_before_it():
    # a cache of derotation periods kept each noisy integrated run's periods:
    # at oversample 5 000 the first run traced 9.24 MiB and held 1.6 MiB
    # after it, and the second, which found them, traced 7.64 MiB
    def integrated(oversample):
        return scen.Scenario.from_dict(scen.apply_overrides(
            scen.load_scenario("integrated_switch"),
            {"oversample": oversample, "channel.noise_psd": 1e-7}))
    _clear_caches()
    scen.simulate(integrated(1))  # warms the pilot and quantizer tables
    sc, readings = integrated(5000), []
    for _ in range(2):
        tracemalloc.start()
        try:
            result = scen.simulate(sc)
            _, peak = tracemalloc.get_traced_memory()
            del result
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        readings.append((peak, held))
    (first, held_first), (second, held_second) = readings
    assert abs(first - second) < 2 ** 16, readings
    assert held_first < 2 ** 16 and held_second < 2 ** 16, readings


@pytest.mark.parametrize("name", ["integrated_switch", "mimo2x2_16qam"])
def test_no_cached_array_grows_with_the_frame(name, monkeypatch):
    def sizes(payload):
        data = scen.apply_overrides(scen.load_scenario(name), {
            "frame.payload_symbols": payload, "channel.noise_psd": 1e-7,
            "spectrum_bins": 512})
        sc = scen.Scenario.from_dict(data)
        calls = _recorded(monkeypatch, lambda: scen.simulate(sc))
        return {name: sorted(a.size for _, value in c for a in _arrays(value))
                for name, c in calls.items()}
    assert sizes(64) == sizes(6400)


QUANTIZERS = [metasurface.QuantizationModel(phase_levels, amplitude_levels, offset)
              for phase_levels in (None, 1, 2, 3, 4, 8, 16)
              for amplitude_levels in (None, 1, 2, 4, 8)
              for offset in (0.0, np.pi / 4, 0.3, -1.0)]


@pytest.mark.parametrize("scheme", txrx.SCHEME_NAMES)
def test_quantizing_the_points_then_gathering_equals_quantizing_each_symbol(scheme):
    # quantize_values works value by value, so the table lookup of a frame's
    # schedule equals quantizing its symbols one by one, in every bit
    points = txrx.get_scheme(scheme).points
    words = np.random.default_rng(5).integers(0, len(points), size=(2, 1001))
    for quant in QUANTIZERS:
        gathered = metasurface.quantize_values(points, quant)[words]
        direct = metasurface.quantize_values(points[words], quant)
        assert np.array_equal(gathered.view(np.uint64), direct.view(np.uint64)), quant


def test_the_pilot_table_equals_quantizing_each_pilot():
    for streams in (1, 2, 3):
        pilots = txrx.make_pilots(streams)
        for quant in QUANTIZERS:
            table, _ = txrx._quantized_tables(txrx.get_scheme("QPSK"), streams, quant)
            direct = metasurface.quantize_values(np.array(pilots), quant)
            assert np.array_equal(table.view(np.uint64), direct.view(np.uint64))


def _traced_peak(overrides: dict) -> float:
    data = scen.apply_overrides(scen.load_scenario("mimo2x2_16qam"), overrides)
    sc = scen.Scenario.from_dict(data)
    tracemalloc.start()
    try:
        result = scen.simulate(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(result.reports["link"].ber == 0.0)
    return peak


def test_a_quantized_million_symbol_frame_costs_what_a_continuous_one_does():
    # quantizing each symbol held seven whole-frame temporaries (234.6 MiB
    # against 105.7 MiB); the table lookup holds none
    qpsk = {"frame.payload_symbols": 10 ** 6, "modulation": "QPSK"}
    continuous = _traced_peak(qpsk)
    quantized = _traced_peak({**qpsk, "quantization.phase_levels": 8})
    assert quantized <= continuous + 2 ** 21, (
        f"quantized {quantized / 2 ** 20:.1f} MiB, "
        f"continuous {continuous / 2 ** 20:.1f} MiB")


@pytest.mark.parametrize("rows, cols, spacing, origin", [
    (4, 4, 0.035, (0.0, 0.0, 0.0)), (3, 5, 0.5, (0.1, -0.2, 0.3)),
    (2, 2, 1e300, (0.0, 0.0, 1e-170)), (1, 7, 1e-160, (0.0, 0.0, 0.0))])
def test_the_coincidence_check_finds_what_the_distance_finds(rows, cols, spacing, origin):
    # a point coincides when its squared distance to some cell, as numpy
    # forms it over the whole grid, is zero
    cells = core.cell_positions(core.SurfaceGeometry(rows, cols, spacing, origin))
    picks = cells[[0, -1, len(cells) // 2]]
    points = [p + delta for p in picks for delta in (
        np.zeros(3), [1e-170, 0, 0], [0, -1e-150, 0], [0, 0, 1e-200], [spacing, 0, 0])]
    points += [[1e308, 0.0, 0.0], [0.0, -1e308, 1e308]]
    data = {"name": "grid", "mode": "transmit_link", "geometry": {
        "rows": rows, "cols": cols, "spacing_m": spacing, "origin_m": list(origin)},
        "points": [{"position_m": [float(v) for v in p], "role": "rx"} for p in points]}
    at = np.array([p["position_m"] for p in data["points"]])
    with np.errstate(over="ignore", invalid="ignore"):
        zero = (np.square(cells[:, np.newaxis] - at).sum(axis=2) == 0.0).any(axis=0)
    want = [f"points[{i}]: coincides with a unit-cell position"
            for i in np.flatnonzero(zero)]
    got = [v for v in scen.validate(data) if "coincides" in v]
    assert got == want and 0 < len(want) < len(points)
