import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudmotion.fleet import SensorSnapshot, ShadowMask, subsample_by_penetration
from cloudmotion.fractal_field import auto_pixel_size, make_clearsky_field, required_field_side
from cloudmotion.geometry import Rect
from cloudmotion.gridding import (
    _TILE,
    GridSeries,
    GridSnapshot,
    GridSpec,
    grid_selected,
    grid_series,
    idw_interpolate,
    select_neighbours,
)
from cloudmotion.synth import random_walk_fleet
from cloudmotion.transit import MeasurementSeries, MotionTruth, TransitConfig, draw_truth, run_transit
from helpers import series_from_snapshots


def _snap(sensors, t=0):
    return SensorSnapshot(t=t, sensors=tuple(sensors))


def _points(spec):
    """Flattened grid coordinates (gx, gy), row-major over (iy, ix)."""
    gx, gy = np.meshgrid(*spec.axes())
    return gx.ravel(), gy.ravel()


def _point_spec():
    # single grid point at (0, 0)
    return GridSpec(Rect(0.0, 0.0, 1.0, 1.0), dmin=10.0)


# ---------------------------------------------------------------- grid spec

def test_grid_spec_dimensions():
    spec = GridSpec(Rect(0.0, 0.0, 600.0, 900.0), 10.0)
    assert (spec.nx, spec.ny) == (61, 91)
    spec30 = GridSpec(Rect(0.0, 0.0, 600.0, 900.0), 30.0)
    assert (spec30.nx, spec30.ny) == (21, 31)


def test_grid_points_anchored_lower_left():
    spec = GridSpec(Rect(5.0, 7.0, 25.0, 17.0), 10.0)
    gx, gy = _points(spec)
    assert gx.min() == 5.0 and gy.min() == 7.0
    assert gx.max() == 25.0 and gy.max() == 17.0


@pytest.mark.parametrize("dmin", [0.0, -1.0, float("inf"), float("nan")])
def test_grid_spec_rejects_dmin_not_positive_finite(dmin):
    with pytest.raises(ValueError, match="dmin must be positive and finite"):
        GridSpec(Rect(0.0, 0.0, 600.0, 900.0), dmin)


@pytest.mark.parametrize("entry", ["idw_interpolate", "select_neighbours", "grid_series"])
def test_gridding_entry_points_reject_k_below_one(entry):
    spec = GridSpec(Rect(0.0, 0.0, 50.0, 50.0), 10.0)
    series = _series([_snap([(1.0, 1.0, 0.5), (2.0, 2.0, 0.6)])])
    call = {"idw_interpolate": lambda: idw_interpolate(series.snapshots[0], spec, 0),
            "select_neighbours": lambda: select_neighbours(series.layout, spec, 0),
            "grid_series": lambda: grid_series(series, spec, 0)}[entry]
    with pytest.raises(ValueError, match="k_neighbors must be >= 1"):
        call()


# -------------------------------------------------------------------- IDW

def test_idw_coincident_sensor_is_exact():
    snap = _snap([(0.0, 0.0, 0.77), (5.0, 5.0, 0.2), (9.0, 1.0, 0.4)])
    grid = idw_interpolate(snap, _point_spec(), 3)
    assert grid.values[0, 0] == 0.77


def test_idw_constant_sensors_give_constant_grid():
    snap = _snap([(1.0, 2.0, 0.7), (50.0, 60.0, 0.7), (300.0, 100.0, 0.7)])
    spec = GridSpec(Rect(0.0, 0.0, 100.0, 100.0), 25.0)
    grid = idw_interpolate(snap, spec, 3)
    assert np.allclose(grid.values, 0.7, atol=1e-12)


def test_idw_hand_computed_two_neighbors():
    # distances 1 and 2 with values 0 and 1: (0/1 + 1/2) / (1 + 1/2) = 1/3
    snap = _snap([(1.0, 0.0, 0.0), (2.0, 0.0, 1.0)])
    grid = idw_interpolate(snap, _point_spec(), 2)
    assert grid.values[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_idw_too_few_sensors_is_invalid():
    grid = idw_interpolate(_snap([(1.0, 1.0, 0.5)]), _point_spec(), 3)
    assert not grid.valid
    assert np.all(np.isnan(grid.values))
    empty = idw_interpolate(_snap([]), _point_spec(), 3)
    assert not empty.valid


def test_idw_distance_tie_broken_by_canonical_order():
    # k=1: both sensors at distance 1; the one with smaller x wins slot k.
    # k=3: (0, 3) and (3, 0) tie at distance 3 for the third slot; (0, 3)
    # comes first in (x, y) order, so its value enters the mean.
    third = (1.0 * 0.2 + 0.5 * 0.4 + (1.0 / 3.0) * 0.3) / (1.0 + 0.5 + 1.0 / 3.0)
    cases = [
        ([(1.0, 0.0, 0.9), (0.0, 1.0, 0.3)], 1, 0.3),
        ([(1.0, 0.0, 0.2), (0.0, 2.0, 0.4), (3.0, 0.0, 0.9), (0.0, 3.0, 0.3)], 3, third),
    ]
    for sensors, k, expected in cases:
        for ordered in (sensors, sensors[::-1]):
            grid = idw_interpolate(_snap(ordered), _point_spec(), k)
            assert grid.values[0, 0] == expected


def test_idw_permutation_invariance():
    rng = np.random.default_rng(3)
    sensors = [(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0.09, 1.2))
               for _ in range(20)]
    spec = GridSpec(Rect(0.0, 0.0, 100.0, 100.0), 10.0)
    ref = idw_interpolate(_snap(sensors), spec, 3)
    for seed in range(3):
        perm = list(np.random.default_rng(seed).permutation(len(sensors)))
        shuffled = [sensors[i] for i in perm]
        assert np.array_equal(idw_interpolate(_snap(shuffled), spec, 3).values, ref.values)


@given(st.integers(0, 10_000), st.integers(3, 12))
@settings(max_examples=40)
def test_idw_convexity(seed, n_sensors):
    rng = np.random.default_rng(seed)
    sensors = [(rng.uniform(0, 60), rng.uniform(0, 60), rng.uniform(0.09, 1.2))
               for _ in range(n_sensors)]
    spec = GridSpec(Rect(0.0, 0.0, 60.0, 60.0), 20.0)
    grid = idw_interpolate(_snap(sensors), spec, 3)
    zs = [s[2] for s in sensors]
    assert grid.values.min() >= min(zs) - 1e-12
    assert grid.values.max() <= max(zs) + 1e-12


def test_idw_scale_consistency():
    rng = np.random.default_rng(8)
    sensors = [(rng.uniform(0, 90), rng.uniform(0, 90), rng.uniform(0.09, 1.2))
               for _ in range(15)]
    bounds = Rect(0.0, 0.0, 90.0, 90.0)
    coarse = idw_interpolate(_snap(sensors), GridSpec(bounds, 30.0), 3)
    fine = idw_interpolate(_snap(sensors), GridSpec(bounds, 15.0), 3)
    # coincident grid locations agree; fine grid has ~4x the points
    assert np.array_equal(fine.values[::2, ::2], coarse.values)
    assert fine.values.size > 3 * coarse.values.size


def _idw_reference(sensors, spec, k):
    """Brute force: stable argsort per grid point, sequential weighted sums."""
    arr = np.asarray(sensors, dtype=np.float64)
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    gx, gy = _points(spec)
    out = np.empty(gx.size)
    for g in range(gx.size):
        d2 = (gx[g] - arr[:, 0]) ** 2 + (gy[g] - arr[:, 1]) ** 2
        sel = np.argsort(d2, kind="stable")[:k]
        if d2[sel[0]] == 0.0:
            out[g] = arr[sel[0], 2]
            continue
        wsum = vsum = 0.0
        for j in sel:
            w = 1.0 / np.sqrt(d2[j])
            wsum += w
            vsum += w * arr[j, 2]
        out[g] = vsum / wsum
    return out.reshape(spec.ny, spec.nx)


@st.composite
def _tie_heavy_case(draw):
    """Integer-metre sensors near a small lattice: distance ties at the k-th
    slot, duplicate positions and sensors on grid points are all common."""
    k = draw(st.integers(1, 4))
    spec = GridSpec(Rect(0.0, 0.0, 20.0, 10.0), draw(st.sampled_from([1.0, 2.0, 5.0])))
    value = st.floats(0.09, 1.2)
    xy = st.tuples(st.integers(-2, 22), st.integers(-2, 12))
    sensors = [(float(x), float(y), z)
               for (x, y), z in draw(st.lists(st.tuples(xy, value), min_size=k, max_size=k + 6))]
    if draw(st.booleans()):  # same position, its own value
        x, y, _ = draw(st.sampled_from(sensors))
        sensors.append((x, y, draw(value)))
    if draw(st.booleans()):  # exactly on a grid point
        ix, iy = draw(st.integers(0, spec.nx - 1)), draw(st.integers(0, spec.ny - 1))
        sensors.append((ix * spec.dmin, iy * spec.dmin, draw(value)))
    return sensors, spec, k


@given(_tie_heavy_case())
# n_sensors == k, with a duplicate pair on a grid point
@example(([(0.0, 0.0, 0.5), (0.0, 0.0, 0.8), (3.0, 4.0, 0.7)],
          GridSpec(Rect(0.0, 0.0, 10.0, 10.0), 5.0), 3))
@settings(max_examples=200, deadline=None)
def test_idw_matches_stable_argsort_reference(case):
    sensors, spec, k = case
    grid = idw_interpolate(_snap(sensors), spec, k)
    assert grid.valid
    assert np.array_equal(grid.values, _idw_reference(sensors, spec, k))


# ------------------------------------------------------------- grid_series

def _series(snapshots):
    return series_from_snapshots(snapshots, MotionTruth(1.0, 0.0))


def test_grid_series_cardinality_and_invalid_passthrough():
    spec = GridSpec(Rect(0.0, 0.0, 50.0, 50.0), 10.0)
    snaps = [
        _snap([(1.0, 1.0, 0.5), (2.0, 2.0, 0.6), (3.0, 3.0, 0.7)], t=0),
        _snap([(1.0, 1.0, 0.5)], t=1),  # too few -> invalid
        _snap([(1.0, 1.0, 0.5), (2.0, 2.0, 0.6), (3.0, 3.0, 0.7)], t=2),
    ]
    grids = grid_series(_series(snaps), spec, 3)
    assert len(grids) == 3
    assert [g.valid for g in grids] == [True, False, True]
    assert [g.t for g in grids] == [0, 1, 2]


def test_grid_series_is_one_block_of_snapshot_views():
    spec = GridSpec(Rect(0.0, 0.0, 50.0, 50.0), 10.0)
    three = [(1.0, 1.0, 0.5), (2.0, 2.0, 0.6), (3.0, 3.0, 0.7)]
    snaps = [_snap(three, t=0), _snap(three[:1], t=1), _snap(three, t=2), _snap([], t=3)]
    grids = grid_series(_series(snaps), spec, 3)
    assert isinstance(grids, GridSeries) and grids.instants == range(4)
    assert grids.values.shape == (4, spec.ny, spec.nx)
    assert grids.valid.tolist() == [True, False, True, False]
    # invalid instants are NaN rows, valid ones have no NaN
    assert np.isnan(grids.values[[1, 3]]).all() and not np.isnan(grids.values[[0, 2]]).any()
    assert len(grids) == 4
    assert (grids[2].t, grids[2].valid) == (2, True)
    assert (grids[-1].t, grids[-3].t, grids[-3].valid) == (3, 1, False)
    with pytest.raises(IndexError):
        grids[4]
    views = list(grids)
    assert [g.t for g in views] == [0, 1, 2, 3]
    for i, g in enumerate(views):
        assert isinstance(g, GridSnapshot) and g.valid == grids.valid[i]
        assert np.shares_memory(g.values, grids.values)
        assert np.array_equal(g.values, grids.values[i], equal_nan=True)


@pytest.mark.parametrize("index", [slice(1, None), 1.0])
def test_grid_series_rejects_non_integer_index(index):
    spec = GridSpec(Rect(0.0, 0.0, 50.0, 50.0), 10.0)
    three = [(1.0, 1.0, 0.5), (2.0, 2.0, 0.6), (3.0, 3.0, 0.7)]
    grids = grid_series(_series([_snap(three, t=0), _snap(three, t=1)]), spec, 3)
    assert grids[np.int64(1)].t == 1
    with pytest.raises(TypeError, match=r"integer indices.*\.values or iterate"):
        grids[index]


def test_grid_series_constant_input_constant_output():
    spec = GridSpec(Rect(0.0, 0.0, 50.0, 50.0), 10.0)
    snap_sensors = [(5.0, 5.0, 0.5), (20.0, 30.0, 0.8), (40.0, 10.0, 1.0)]
    snaps = [_snap(snap_sensors, t=t) for t in range(4)]
    grids = grid_series(_series(snaps), spec, 3)
    for g in list(grids)[1:]:
        assert np.array_equal(g.values, grids[0].values)


def test_grid_series_all_empty_all_invalid():
    spec = GridSpec(Rect(0.0, 0.0, 50.0, 50.0), 10.0)
    grids = grid_series(_series([_snap([], t=t) for t in range(3)]), spec, 3)
    assert all(not g.valid for g in grids)


# ------------------------------------------- grid_series against the reference

def _assert_matches_reference(series, spec, k):
    grids = grid_series(series, spec, k)
    assert len(grids) == len(series.snapshots)
    for grid, snap in zip(grids, series.snapshots):
        ref = idw_interpolate(snap, spec, k)
        assert (grid.t, grid.valid) == (ref.t, ref.valid)
        assert np.array_equal(grid.values, ref.values, equal_nan=True)


@st.composite
def _tiled_series_case(draw):
    """A few snapshots on a lattice of several tiles, the last tile on each
    axis partial.  Integer-metre sensors make distance ties common; some sit
    on grid points, share a position or lie outside the bounds, one snapshot
    may hold a dense cluster (a tile with many candidates), and snapshot
    sizes run from below k through exactly k upward."""
    k = draw(st.integers(1, 4))
    dmin = draw(st.sampled_from([1.0, 2.0, 5.0]))
    partial = st.integers(_TILE + 1, 3 * _TILE - 1).filter(lambda v: v % _TILE)
    nx, ny = draw(partial), draw(partial)
    spec = GridSpec(Rect(0.0, 0.0, (nx - 1) * dmin, (ny - 1) * dmin), dmin)
    w, h = int(spec.bounds.width), int(spec.bounds.height)
    value = st.floats(0.09, 1.2)
    snapshots = []
    for t in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from([k - 1, k, k + 1, k + 5, k + 20]))
        xy = st.tuples(st.integers(-3, w + 3), st.integers(-3, h + 3))
        sensors = [(float(x), float(y), z)
                   for (x, y), z in draw(st.lists(st.tuples(xy, value), min_size=n, max_size=n))]
        if sensors and draw(st.booleans()):  # same position, its own value
            x, y, _ = draw(st.sampled_from(sensors))
            sensors.append((x, y, draw(value)))
        if draw(st.booleans()):  # exactly on a grid point
            ix, iy = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
            sensors.append((ix * dmin, iy * dmin, draw(value)))
        if draw(st.booleans()):  # dense cluster inside one tile
            cx, cy = draw(st.integers(0, w)), draw(st.integers(0, h))
            offset = st.floats(0.0, 2.0 * dmin)
            sensors += [(cx + draw(offset), cy + draw(offset), draw(value))
                        for _ in range(draw(st.integers(10, 40)))]
        snapshots.append(_snap(sensors, t=t))
    return _series(snapshots), spec, k


@given(_tiled_series_case())
# k = 1 with two sensors at one position: the first in canonical order wins
@example((_series([_snap([(3.5, 4.5, 0.2), (3.5, 4.5, 0.9), (30.0, 1.0, 0.5)])]),
          GridSpec(Rect(0.0, 0.0, 40.0, 40.0), 5.0), 1))
@settings(max_examples=150, deadline=None)
def test_grid_series_matches_idw_interpolate(case):
    _assert_matches_reference(*case)


def test_grid_series_more_than_255_candidates():
    # 300 sensors on one spot are all candidates of every tile, so the
    # candidate ranks need more than 8 bits; ties go to input order
    rng = np.random.default_rng(5)
    sensors = [(12.5, 7.5, z) for z in rng.uniform(0.09, 1.2, 300)] + [(40.0, 40.0, 0.3)]
    spec = GridSpec(Rect(0.0, 0.0, 60.0, 60.0), 5.0)
    _assert_matches_reference(_series([_snap(sensors)]), spec, 3)


# ---------------------------------- one neighbour selection, many k* columns

def _assert_selection_matches_reference(series, spec, k, columns):
    """Grids of each k* column from one selection of series.layout equal
    idw_interpolate per snapshot and grid_series, bit for bit."""
    selection = select_neighbours(series.layout, spec, k)
    for kstar in columns:
        other = MeasurementSeries(series.layout, np.asarray(kstar, dtype=np.float64), series.truth)
        grids = grid_selected(selection, other)
        assert np.array_equal(grids.values, grid_series(other, spec, k).values, equal_nan=True)
        assert len(grids) == len(other.snapshots)
        for grid, snap in zip(grids, other.snapshots):
            ref = idw_interpolate(snap, spec, k)
            assert (grid.t, grid.valid) == (ref.t, ref.valid)
            assert np.array_equal(grid.values, ref.values, equal_nan=True)
    return selection


@st.composite
def _selection_case(draw):
    """A _tiled_series_case layout (ties, shared positions, sensors on grid
    points, dense clusters, instants below k and empty ones) and a few
    random k* columns of its rows."""
    series, spec, k = draw(_tiled_series_case())
    if draw(st.booleans()):  # an empty instant
        snaps = list(series.snapshots) + [_snap([], t=len(series.snapshots))]
        series = _series(snaps)
    n = len(series.kstar)
    column = st.lists(st.floats(0.09, 1.2), min_size=n, max_size=n)
    return series, spec, k, draw(st.lists(column, min_size=1, max_size=3))


@given(_selection_case())
@settings(max_examples=100, deadline=None)
def test_selection_grids_match_idw_interpolate(case):
    _assert_selection_matches_reference(*case)


def test_selection_more_than_256_sensors_in_uint16_rows():
    # an instant of 301 sensors needs rows past 255; one of 3 fits in uint8
    rng = np.random.default_rng(6)
    crowd = [(12.5, 7.5, 0.5)] * 150 + [(float(x), float(y), 0.5)
                                        for x, y in rng.integers(0, 60, (151, 2))]
    few = [(5.0, 5.0, 0.5), (30.0, 30.0, 0.5), (55.0, 5.0, 0.5)]
    series = _series([_snap(crowd, t=0), _snap(few, t=1), _snap(few[:2], t=2)])
    spec = GridSpec(Rect(0.0, 0.0, 60.0, 60.0), 5.0)
    columns = rng.uniform(0.09, 1.2, (3, len(series.kstar)))
    selection = _assert_selection_matches_reference(series, spec, 3, columns)
    assert [None if r is None else r.dtype for r in selection.rows] == [np.uint16, np.uint8, None]
    assert selection.rows[0].shape == (3, spec.ny * spec.nx)
    assert selection.rows[0].max() > 255


def test_selection_of_masked_transits_at_nested_penetration_rates():
    # a building mask leaves instants with no sensor, with fewer than k and
    # with k or more; the draws of one pr share their layout, and pr 0.5 is
    # a subset of pr 1.0's vehicles
    bounds = Rect(0.0, 0.0, 300.0, 300.0)
    pixel = auto_pixel_size(256, required_field_side(60, 30.0, bounds.diagonal))
    field = make_clearsky_field(256, 1.5, seed=3, pixel_size_m=pixel)
    mask = ShadowMask(mask=np.random.default_rng(0).random((6, 6)) < 0.5,
                      origin=(0.0, 0.0), pixel_size_m=50.0)
    fleet = random_walk_fleet(8, bounds, 60, seed=1)
    spec = GridSpec(bounds, 10.0)
    counts = set()
    for pr in (0.5, 1.0):
        ds = subsample_by_penetration(fleet, pr, 0)
        draws = [run_transit(field, ds, mask, draw_truth(i), TransitConfig(60, 1, seed=i))
                 for i in range(4)]
        assert all(d.layout is draws[0].layout for d in draws)
        counts |= {len(s.sensors) for s in draws[0].snapshots}
        _assert_selection_matches_reference(draws[0], spec, 3, [d.kstar for d in draws])
    assert {0, 1, 2} <= counts and max(counts) >= 3


def test_grid_selected_needs_the_selections_layout():
    spec = GridSpec(Rect(0.0, 0.0, 50.0, 50.0), 10.0)
    three = [(1.0, 1.0, 0.5), (2.0, 2.0, 0.6), (3.0, 3.0, 0.7)]
    selection = select_neighbours(_series([_snap(three)]).layout, spec, 3)
    with pytest.raises(ValueError, match="layout"):
        grid_selected(selection, _series([_snap(three)]))


@pytest.mark.parametrize("period", [1, 2])
def test_grid_series_matches_idw_interpolate_masked_transit(period):
    # four vehicles under a building mask that shades about 60 % of the
    # ground: instants with no sensor, with fewer than k and with k or more
    bounds = Rect(0.0, 0.0, 300.0, 300.0)
    pixel = auto_pixel_size(256, required_field_side(60, 30.0, bounds.diagonal))
    field = make_clearsky_field(256, 1.5, seed=3, pixel_size_m=pixel)
    rng = np.random.default_rng(0)
    mask = ShadowMask(mask=rng.random((6, 6)) < 0.6, origin=(0.0, 0.0), pixel_size_m=50.0)
    ds = random_walk_fleet(4, bounds, 60, seed=0)
    series = run_transit(field, ds, mask, draw_truth(0), TransitConfig(60, period))
    counts = {len(s.sensors) for s in series.snapshots}
    assert {0, 1, 2} <= counts and max(counts) >= 3
    grids = grid_series(series, GridSpec(bounds, 10.0), 3)
    assert [g.t for g in grids] == list(range(0, 61, period))
    _assert_matches_reference(series, GridSpec(bounds, 10.0), 3)


@pytest.fixture(scope="module")
def desk_series():
    """Criterion-3 transits of the first truth draw at pr 0.1 and 1.0."""
    bounds = Rect(0.0, 0.0, 600.0, 900.0)
    pixel = auto_pixel_size(2048, required_field_side(300, 30.0, bounds.diagonal))
    field = make_clearsky_field(2048, 1.5, seed=7, pixel_size_m=pixel)
    fleet = random_walk_fleet(100, bounds, 300, seed=42)
    cfg = TransitConfig(duration_s=300, sampling_period_s=1, seed=0)
    series = {pr: run_transit(field, subsample_by_penetration(fleet, pr, 0), None, draw_truth(0), cfg)
              for pr in (0.1, 1.0)}
    return series, GridSpec(bounds, 10.0)


@pytest.mark.parametrize("pr", [0.1, 1.0])
def test_grid_series_matches_idw_interpolate_desk_scale(desk_series, pr):
    series, spec = desk_series
    _assert_matches_reference(series[pr], spec, 3)


def test_grid_series_peak_memory_below_reference(desk_series):
    # the exhaustive path holds all sensors x grid points distances; the
    # tiled path only the candidates of each tile
    series, spec = desk_series
    snap = series[1.0].snapshots[0]
    peaks = []
    for run in (lambda: idw_interpolate(snap, spec, 3),
                lambda: grid_series(_series([snap]), spec, 3)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    reference, tiled = peaks
    assert tiled < reference
