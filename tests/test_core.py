import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from metalink.core import (
    TWO_PI,
    CoefficientSchedule,
    ComplexEnvelope,
    ConfigurationError,
    PointSet,
    SurfaceGeometry,
    cell_positions,
    resample_hold,
    tone_envelope,
    wrap_phase,
)
from oracles import cell_position


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_single_cell_sits_on_origin():
    geo = SurfaceGeometry(1, 1, 0.035)
    assert np.array_equal(cell_position(geo, 0, 0), [0.0, 0.0, 0.0])


def test_two_by_two_is_symmetric_about_origin():
    geo = SurfaceGeometry(2, 2, 1.0)
    assert np.array_equal(cell_position(geo, 0, 0), [-0.5, -0.5, 0.0])
    assert np.array_equal(cell_position(geo, 1, 1), [0.5, 0.5, 0.0])


def test_corner_cell_of_16x16_grid():
    # (15 - 7.5) * 0.035 = 0.2625 on both axes
    geo = SurfaceGeometry(16, 16, 0.035)
    pos = cell_position(geo, 15, 15)
    assert pos[0] == pytest.approx(0.2625, abs=1e-15)
    assert pos[1] == pytest.approx(0.2625, abs=1e-15)
    assert pos[2] == 0.0


def test_cell_position_respects_origin():
    geo = SurfaceGeometry(3, 3, 0.1, origin=(1.0, 2.0, 3.0))
    assert np.allclose(cell_position(geo, 1, 1), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("n,m", [(-1, 0), (0, -1), (2, 0), (0, 2)])
def test_cell_position_rejects_out_of_range(n, m):
    geo = SurfaceGeometry(2, 2, 1.0)
    with pytest.raises(ValueError):
        cell_position(geo, n, m)


def test_cell_position_is_injective():
    geo = SurfaceGeometry(5, 7, 0.02)
    seen = {tuple(cell_position(geo, n, m))
            for n in range(geo.rows) for m in range(geo.cols)}
    assert len(seen) == geo.num_cells


def test_cell_positions_matches_scalar_and_is_row_major():
    geo = SurfaceGeometry(3, 4, 0.05, origin=(0.1, -0.2, 0.0))
    table = cell_positions(geo)
    for n in range(geo.rows):
        for m in range(geo.cols):
            assert np.array_equal(table[n * geo.cols + m], cell_position(geo, n, m))


def test_equal_geometries_place_their_cells_identically():
    table = cell_positions(SurfaceGeometry(3, 4, 0.05, origin=(0.1, -0.2, 0.0)))
    # an equal geometry, -0.0 included, places its cells identically
    again = cell_positions(SurfaceGeometry(3, 4, 0.05, origin=(0.1, -0.2, -0.0)))
    assert np.array_equal(again, table)
    assert not np.any(np.signbit(again[:, 2]))


def test_grid_is_centered_on_origin():
    geo = SurfaceGeometry(4, 6, 0.03, origin=(0.5, 0.5, 0.1))
    assert np.allclose(cell_positions(geo).mean(axis=0), geo.origin)


@pytest.mark.parametrize("rows,cols,spacing", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0)])
def test_geometry_rejects_degenerate_parameters(rows, cols, spacing):
    with pytest.raises(ConfigurationError):
        SurfaceGeometry(rows, cols, spacing)


# ---------------------------------------------------------------------------
# phase wrapping
# ---------------------------------------------------------------------------

@given(st.floats(-100.0, 100.0))
def test_wrap_phase_lands_in_range(phi):
    wrapped = wrap_phase(phi)
    assert 0.0 <= wrapped < TWO_PI
    assert np.isclose(np.exp(1j * wrapped), np.exp(1j * phi), atol=1e-9)


def test_wrap_phase_folds_the_seam():
    assert wrap_phase(-1e-20) == 0.0
    assert wrap_phase(TWO_PI) == 0.0


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def test_envelope_validation():
    with pytest.raises(ValueError):
        ComplexEnvelope(np.zeros(0), 1e6, 1e9)
    with pytest.raises(ValueError):
        ComplexEnvelope(np.ones(4), 0.0, 1e9)


def test_envelope_duration_and_times():
    env = tone_envelope(8, 4.0, 1e9)
    assert len(env) / env.sample_rate == 2.0


def test_tone_envelope_offset_frequency():
    env = tone_envelope(16, 16.0, 0.0, freq_offset=4.0)
    assert np.allclose(env.samples, np.exp(2j * np.pi * 4.0 * np.arange(16) / 16.0))


def test_constant_carrier_allocates_nothing():
    # 10^7 samples would be 160 MB; a broadcast view of one value is not
    tracemalloc.start()
    try:
        env = tone_envelope(10 ** 7, 1e9, 4.25e9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert not env.samples.flags.writeable
    assert len(env) == 10 ** 7 and env.samples.dtype == np.complex128
    assert np.all(env.samples[[0, -1]] == 1.0)


# ---------------------------------------------------------------------------
# schedules and resampling
# ---------------------------------------------------------------------------

def test_a_schedule_forms_nothing_from_its_values():
    # 2 x 10^6 values: their magnitudes, formed to check the bound, took
    # 15.3 MiB; the makers of the values keep |x| <= 1 instead
    values = np.ones((2, 10 ** 6), dtype=np.complex128)
    tracemalloc.start()
    try:
        schedule = CoefficientSchedule(values, 1e8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert schedule.values is values
    assert peak < 2 ** 16, f"peak {peak / 2 ** 20:.1f} MiB"


def test_resample_hold_identity():
    sched = CoefficientSchedule(np.array([[1.0, 1j]]), 1e8)
    assert resample_hold(sched, 1e8) is sched


def test_resample_hold_repeats_each_value():
    sched = CoefficientSchedule(np.array([[1.0, 1j]]), 1e8)
    out = resample_hold(sched, 2e8)
    assert out.control_rate == 2e8
    assert np.array_equal(out.values, [[1.0, 1.0, 1j, 1j]])


def test_resample_hold_staircase_counts():
    # 20 values at 100 MHz -> 80 values at 400 MHz in 4-sample plateaus
    values = np.exp(-2j * np.pi * np.arange(20) / 20)[np.newaxis, :]
    out = resample_hold(CoefficientSchedule(values, 1e8), 4e8)
    assert out.num_steps == 80
    plateaus = out.values[0].reshape(20, 4)
    assert np.all(plateaus == plateaus[:, :1])


def test_resample_hold_rejects_fractional_ratio():
    sched = CoefficientSchedule(np.array([[1.0, 1j]]), 1e8)
    with pytest.raises(ConfigurationError):
        resample_hold(sched, 2.5e8)
    with pytest.raises(ConfigurationError):
        resample_hold(sched, 5e7)


@given(st.integers(1, 5), st.integers(1, 6), st.integers(2, 12))
def test_resample_hold_preserves_values_order_and_duration(ratio, cells, steps):
    rng = np.random.default_rng(steps * 100 + cells * 10 + ratio)
    values = np.exp(1j * rng.uniform(0, TWO_PI, size=(cells, steps)))
    sched = CoefficientSchedule(values, 1e6)
    out = resample_hold(sched, ratio * 1e6)
    assert out.num_steps == steps * ratio
    assert out.num_steps / out.control_rate == pytest.approx(
        sched.num_steps / sched.control_rate)
    # deduplicating consecutive runs recovers the original sequence
    for c in range(cells):
        row = out.values[c]
        keep = np.r_[True, row[1:] != row[:-1]]
        assert np.array_equal(row[keep], values[c])


# ---------------------------------------------------------------------------
# point sets
# ---------------------------------------------------------------------------

def test_point_set_roles():
    points = PointSet(np.array([[0, 0, 1.0], [1, 0, 1.0]]), ("feed", "rx"))
    assert points.indices_with_role("feed") == [0]


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((0, 3)), ())
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 3)), ("feed",))
