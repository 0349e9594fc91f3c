import dataclasses
import math
import pickle
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cloudmotion.fleet import (
    MaskCoverageError,
    SamplingLayout,
    SensorSnapshot,
    ShadowMask,
    TrajectoryDataset,
    trajectory_table,
)
from cloudmotion.fractal_field import _LEVEL_KSTAR, ClearSkyField, kstar_to_levels
from cloudmotion.geometry import Rect
from cloudmotion.gridding import GridSpec, grid_series
from cloudmotion.transit import (
    FieldSizingError,
    MeasurementSeries,
    MotionTruth,
    TransitConfig,
    _kstar_text,
    default_field_anchor,
    draw_truth,
    export_series,
    is_valid_event,
    run_transit,
)
from helpers import export_series_per_snapshot, run_transit_per_instant, series_from_snapshots

BOUNDS = Rect(0.0, 0.0, 600.0, 900.0)


def _coordinate_fields(side=512, pixel=1.0):
    """Four fields whose levels are the low and high byte of each pixel's
    row and then column index, so lookups are verifiable; 256 levels
    cannot number the pixels of one field."""
    iy, ix = np.mgrid[0:side, 0:side]
    return [
        ClearSkyField(levels=(c >> shift & 255).astype(np.uint8), pixel_size_m=pixel)
        for c in (iy, ix)
        for shift in (0, 8)
    ]


def _sampled_pixels(fields, anchor, truth, t, positions):
    """(row, column) of the pixel each position reads at instant t, through run_transit."""
    ds = _fleet([(f"p{i:03d}", t, x, y) for i, (x, y) in enumerate(positions)], t + 1)
    cfg = TransitConfig(t + 1, 1, field_anchor=anchor)
    lo_y, hi_y, lo_x, hi_x = (
        kstar_to_levels(run_transit(f, ds, None, truth, cfg).snapshots[t].sensors[:, 2])
        .astype(int)
        for f in fields
    )
    return list(zip((hi_y << 8 | lo_y).tolist(), (hi_x << 8 | lo_x).tolist()))


def _field(kstar, pixel=1.0):
    """A field from a square float k* raster, quantised to levels."""
    return ClearSkyField(levels=kstar_to_levels(kstar), pixel_size_m=pixel)


def _flat_field(value=1.2, side=2048, pixel=8.0):
    return _field(np.full((side, side), value, dtype=np.float32), pixel)


def _fleet(recs, duration_s):
    """A dataset from (vehicle_id, t, x, y) rows in any order."""
    return TrajectoryDataset(trajectory_table(*zip(*recs)), (0, duration_s), BOUNDS)


def _static_fleet(positions, duration_s):
    recs = [
        (f"v{i:03d}", t, x, y) for t in range(duration_s + 1) for i, (x, y) in enumerate(positions)
    ]
    return _fleet(recs, duration_s)


# ------------------------------------------------------------ motion truth

def test_velocity_convention():
    north = MotionTruth(10.0, 0.0).velocity
    east = MotionTruth(10.0, 90.0).velocity
    assert north == pytest.approx([0.0, 10.0], abs=1e-9)
    assert east == pytest.approx([10.0, 0.0], abs=1e-9)


def test_truth_validation():
    with pytest.raises(ValueError):
        MotionTruth(-1.0, 0.0)
    with pytest.raises(ValueError):
        MotionTruth(5.0, 360.0)


def test_draw_truth_deterministic():
    a, b = draw_truth(42), draw_truth(42)
    assert (a.speed, a.direction_deg) == (b.speed, b.direction_deg)
    assert a.speed == pytest.approx(23.444725408122938, rel=1e-12)
    assert a.direction_deg == pytest.approx(157.99623831073885, rel=1e-12)


def test_draw_truth_ranges_and_uniformity():
    truths = [draw_truth(i) for i in range(10_000)]
    speeds = np.array([t.speed for t in truths])
    dirs = np.array([t.direction_deg for t in truths])
    assert speeds.min() >= 1.0 and speeds.max() <= 30.0
    assert dirs.min() >= 0.0 and dirs.max() < 360.0
    obs, _ = np.histogram(dirs, bins=36, range=(0.0, 360.0))
    expected = len(truths) / 36
    chi2 = float(((obs - expected) ** 2 / expected).sum())
    # 35 dof: mean 35, sd sqrt(70); stay within 3 sigma
    assert chi2 < 35 + 3 * math.sqrt(70)


# --------------------------------------------------------------- sampling

def test_sample_static_truth_is_constant_over_time():
    fields = _coordinate_fields()
    truth = MotionTruth(0.0, 0.0)
    pos = [(100.5, 200.5), (300.25, 400.75)]
    s0 = _sampled_pixels(fields, (0.0, 0.0), truth, 0, pos)
    s9 = _sampled_pixels(fields, (0.0, 0.0), truth, 9, pos)
    assert s0 == s9


def test_sample_direction_zero_offsets_lookup_south():
    # the field moves north, so the t=10 lookup lands 100 m south (in field
    # coordinates) of the t=0 lookup
    fields = _coordinate_fields()
    truth = MotionTruth(10.0, 0.0)
    p = [(128.5, 200.5)]
    k0 = _sampled_pixels(fields, (0.0, 0.0), truth, 0, p)[0]
    k10 = _sampled_pixels(fields, (0.0, 0.0), truth, 10, p)[0]
    assert k0 == (200, 128)
    assert k10 == (100, 128)


def test_sample_same_position_same_value():
    fields = _coordinate_fields()
    truth = MotionTruth(3.0, 45.0)
    pixels = _sampled_pixels(fields, (-100.0, -100.0), truth, 5, [(50.0, 60.0), (50.0, 60.0)])
    assert pixels[0] == pixels[1]


def test_sample_outside_field_fails_fast():
    # lookups drift north by 10 m/s from y = 32 m and leave the 64 m raster at t = 4
    field = _flat_field(side=64, pixel=1.0)
    truth = MotionTruth(10.0, 180.0)
    ds = _static_fleet([(32.0, 32.0)], 50)
    cfg = TransitConfig(50, 1, field_anchor=(0.0, 0.0))
    with pytest.raises(FieldSizingError, match="at t=4;"):
        run_transit(field, ds, None, truth, cfg)


@given(
    speed=st.floats(min_value=0.5, max_value=5.0),
    direction=st.floats(min_value=0.0, max_value=359.999),
    t=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60)
def test_galilean_consistency(speed, direction, t):
    # sampling at time t equals sampling at time 0 with positions displaced
    # by -t*v (up to pixel-boundary ties, excluded below)
    fields = _coordinate_fields()
    truth = MotionTruth(speed, direction)
    v = truth.velocity
    positions = [(200.5, 250.5), (310.5, 180.5)]
    for x, y in positions:
        for q in (x - t * v[0], y - t * v[1]):
            assume(abs(q - round(q)) > 1e-7)
    moved = [(x - t * v[0], y - t * v[1]) for x, y in positions]
    s_t = _sampled_pixels(fields, (0.0, 0.0), truth, t, positions)
    s_0 = _sampled_pixels(fields, (0.0, 0.0), truth, 0, moved)
    assert s_t == s_0


# ------------------------------------------------------------ run_transit

def test_transit_snapshot_count():
    field = _flat_field()
    ds = _static_fleet([(300.0, 450.0)], 300)
    series = run_transit(field, ds, None, MotionTruth(5.0, 90.0), TransitConfig(300, 1))
    assert len(series.snapshots) == 301
    series2 = run_transit(field, ds, None, MotionTruth(5.0, 90.0), TransitConfig(300, 2))
    assert len(series2.snapshots) == 151


def test_transit_deterministic():
    field = _flat_field()
    ds = _static_fleet([(100.0, 100.0), (500.0, 800.0)], 60)
    cfg = TransitConfig(60, 1)
    truth = MotionTruth(12.0, 200.0)
    a = run_transit(field, ds, None, truth, cfg)
    b = run_transit(field, ds, None, truth, cfg)
    assert (a.truth, a.sampling_period_s) == (b.truth, b.sampling_period_s)
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.t == sb.t
        assert np.array_equal(sa.sensors, sb.sensors)
        assert np.array_equal(sa.vehicle_ids, sb.vehicle_ids)


def test_transit_snapshots_hold_arrays():
    field = _flat_field()
    ds = _static_fleet([(100.0, 100.0), (500.0, 800.0), (300.0, 450.0)], 5)
    series = run_transit(field, ds, None, MotionTruth(12.0, 200.0), TransitConfig(5, 1))
    for snap in series.snapshots:
        assert isinstance(snap.sensors, np.ndarray)
        assert snap.sensors.dtype == np.float64 and snap.sensors.shape == (3, 3)
        assert snap.vehicle_ids.tolist() == ["v000", "v001", "v002"]
        assert snap.sensors[:, :2].tolist() == [[100.0, 100.0], [500.0, 800.0], [300.0, 450.0]]


def test_sensor_snapshot_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SensorSnapshot(t=0, sensors=[(1.0, 2.0)])
    with pytest.raises(ValueError, match="parallel"):
        SensorSnapshot(t=0, sensors=[(1.0, 2.0, 0.5)], vehicle_ids=["a", "b"])
    assert SensorSnapshot(t=0, sensors=()).sensors.shape == (0, 3)


def test_transit_requires_dataset_coverage():
    field = _flat_field()
    ds = _static_fleet([(300.0, 450.0)], 100)
    with pytest.raises(ValueError, match="covers"):
        run_transit(field, ds, None, MotionTruth(5.0, 0.0), TransitConfig(300, 1))


def test_series_rejects_kstar_or_cuts_off_its_layout():
    field = _flat_field()
    ds = _static_fleet([(100.0, 100.0), (500.0, 800.0)], 5)
    series = run_transit(field, ds, None, MotionTruth(2.0, 0.0), TransitConfig(5, 1))
    layout = series.layout
    assert series.kstar.dtype == np.float64 and series.kstar.shape == layout.t.shape == (12,)
    with pytest.raises(ValueError, match="parallel"):
        MeasurementSeries(layout, series.kstar[:-1], series.truth)
    short = replace(layout, duration_s=4)  # 5 instants, 7 cuts
    with pytest.raises(ValueError, match="cut once per instant"):
        MeasurementSeries(short, series.kstar, series.truth)


def test_transit_empty_instant_gives_empty_snapshot():
    field = _flat_field()
    ds = _fleet([("v0", t, 300.0, 450.0) for t in (0, 2)], 2)  # nothing at t=1
    series = run_transit(field, ds, None, MotionTruth(2.0, 0.0), TransitConfig(2, 1))
    assert len(series.snapshots[1].sensors) == 0


@given(
    seed=st.integers(0, 2**32 - 1),
    period=st.sampled_from([1, 2, 5]),
    mask_kind=st.sampled_from(["none", "lit", "random", "dark"]),
    explicit_anchor=st.booleans(),
    small_field=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_transit_matches_per_instant_reference(
    seed, period, mask_kind, explicit_anchor, small_field
):
    # sparse records leave instants empty; the dataset runs past the transit
    # and holds records between sampling instants, which the transit skips
    rng = np.random.default_rng(seed)
    duration = period * int(rng.integers(1, 6))
    ds_duration = duration + int(rng.integers(0, 7))
    recs = [
        (f"v{i}", t, rng.uniform(0.0, 600.0), rng.uniform(0.0, 900.0))
        for i in range(int(rng.integers(0, 7)))
        for t in range(ds_duration + 1)
        if rng.random() < 0.6
    ]
    table = trajectory_table(*(list(zip(*recs)) or [()] * 4))
    ds = TrajectoryDataset(table, (0, ds_duration), BOUNDS)
    shadowed_share = {"lit": 0.0, "random": 0.4, "dark": 1.1}.get(mask_kind)
    mask = None if shadowed_share is None else ShadowMask(
        mask=rng.random((18, 12)) < shadowed_share, origin=(0.0, 0.0), pixel_size_m=50.0
    )
    # 1536 m covers a 1082 m diagonal plus a 250 m sweep; 512 m does not
    levels = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    field = ClearSkyField(levels=levels, pixel_size_m=8.0 if small_field else 24.0)
    anchor = tuple(rng.uniform(-400.0, 0.0, 2)) if explicit_anchor else None
    truth = MotionTruth(rng.uniform(0.0, 10.0), rng.uniform(0.0, 360.0))
    cfg = TransitConfig(duration, period, field_anchor=anchor)
    try:
        want = run_transit_per_instant(field, ds, mask, truth, cfg)
    except FieldSizingError as exc:
        with pytest.raises(FieldSizingError) as got:
            run_transit(field, ds, mask, truth, cfg)
        assert str(got.value) == str(exc)
        return
    got = run_transit(field, ds, mask, truth, cfg)
    assert (got.truth, got.sampling_period_s) == (want.truth, want.sampling_period_s)
    assert [s.t for s in got.snapshots] == [s.t for s in want.snapshots]
    for g, w in zip(got.snapshots, want.snapshots):
        assert g.sensors.shape == w.sensors.shape and g.sensors.tobytes() == w.sensors.tobytes()
        assert g.vehicle_ids.dtype == w.vehicle_ids.dtype
        assert g.vehicle_ids.tolist() == w.vehicle_ids.tolist()


def test_default_anchor_centers_the_sweep():
    field = _flat_field(side=2048, pixel=8.0)
    truth = MotionTruth(20.0, 135.0)
    anchor = default_field_anchor(field, BOUNDS, truth, 300)
    # at mid-transit the lookup of the area center sits at the field center
    v = truth.velocity
    cx, cy = BOUNDS.center
    mid_lookup = (cx - anchor[0] - 150 * v[0], cy - anchor[1] - 150 * v[1])
    assert mid_lookup[0] == pytest.approx(field.extent_m / 2)
    assert mid_lookup[1] == pytest.approx(field.extent_m / 2)


def test_default_anchor_covers_max_speed_transit():
    # field sized by the duration*v_max + diagonal rule must never raise a
    # sizing error when the sweep is centered
    side, pixel = 2048, 8.0  # extent 16384 >= 9000 + diag
    field = _flat_field(side=side, pixel=pixel)
    ds = _static_fleet([(0.0, 0.0), (600.0, 900.0)], 300)
    for direction in (0.0, 45.0, 137.0, 270.0):
        truth = MotionTruth(30.0, direction)
        run_transit(field, ds, None, truth, TransitConfig(300, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        TransitConfig(duration_s=301, sampling_period_s=2)
    with pytest.raises(ValueError):
        TransitConfig(duration_s=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TransitConfig(seed=-1)


# ------------------------------------------------------------ validity

def _gradient_field(side=1024):
    # clear plateau, then a linear ramp down across x in [700, 940], dark after
    kstar = np.full((side, side), 1.2, dtype=np.float32)
    ramp = np.linspace(1.2, 0.09, 240, dtype=np.float32)
    kstar[:, 700:940] = ramp[None, :]
    kstar[:, 940:] = 0.09
    return _field(kstar)


def test_fully_clear_field_never_valid():
    field = _flat_field(1.2)
    ds = _static_fleet([(300.0, 450.0), (250.0, 400.0)], 300)
    series = run_transit(field, ds, None, MotionTruth(10.0, 90.0), TransitConfig(300, 1))
    assert not is_valid_event(series, BOUNDS, 60)


def test_edge_crossing_central_rectangle_is_valid():
    # lookup point of the central sensor crosses the 240 m ramp at 2 m/s:
    # ~120 s of per-second changes, comfortably above the 60 s requirement
    field = _gradient_field()
    ds = _static_fleet([(300.0, 450.0)], 300)
    truth = MotionTruth(2.0, 90.0)
    cfg = TransitConfig(300, 1, field_anchor=(-700.0, 0.0))
    series = run_transit(field, ds, None, truth, cfg)
    assert is_valid_event(series, BOUNDS, 60)
    # raising the requirement beyond the crossing time flips the verdict
    assert not is_valid_event(series, BOUNDS, 150)


def test_variability_outside_central_rectangle_does_not_count():
    field = _gradient_field()
    ds = _static_fleet([(50.0, 50.0)], 300)  # corner rectangle only
    truth = MotionTruth(2.0, 90.0)
    cfg = TransitConfig(300, 1, field_anchor=(-700.0, 0.0))
    series = run_transit(field, ds, None, truth, cfg)
    assert not is_valid_event(series, BOUNDS, 60)


def test_new_vehicle_modal_rule():
    # fresh ids every second straddling a static shadow edge: the minority
    # sensor differs from the instant's mode, so every instant qualifies
    side = 1024
    kstar = np.full((side, side), 1.2, dtype=np.float32)
    kstar[:, 300:] = 0.09
    field = _field(kstar)
    truth = MotionTruth(0.0, 0.0)
    recs = []
    for t in range(151):
        recs.append((f"a{t:03d}", t, 290.0, 450.0))
        recs.append((f"b{t:03d}", t, 310.0, 450.0))
    ds = _fleet(recs, 150)
    series = run_transit(field, ds, None, truth, TransitConfig(150, 1, field_anchor=(0.0, 0.0)))
    assert is_valid_event(series, BOUNDS, 60)
    # same-side fresh ids agree with the mode: nothing ever qualifies
    ds2 = _fleet([(f"c{t:03d}", t, 290.0, 450.0) for t in range(151)], 150)
    series2 = run_transit(field, ds2, None, truth, TransitConfig(150, 1, field_anchor=(0.0, 0.0)))
    assert not is_valid_event(series2, BOUNDS, 60)


def test_validity_monotone_in_requirement():
    field = _gradient_field()
    ds = _static_fleet([(300.0, 450.0)], 300)
    cfg = TransitConfig(300, 1, field_anchor=(-700.0, 0.0))
    series = run_transit(field, ds, None, MotionTruth(2.0, 90.0), cfg)
    verdicts = [is_valid_event(series, BOUNDS, m) for m in (10, 60, 110, 150, 200)]
    # once invalid, stays invalid as the requirement grows
    assert verdicts == sorted(verdicts, reverse=True)


def test_validity_rejects_negative_requirement():
    # one constant sensor never qualifies, so (0 - 1) * period is its span;
    # a requirement of -2 s or less used to pass it as a valid event
    series = series_from_snapshots(
        [_snapshot(t, [(300.0, 450.0, 0.5)]) for t in range(5)], MotionTruth(1.0, 0.0)
    )
    assert not is_valid_event(series, BOUNDS, 60)
    assert not is_valid_event(series, BOUNDS, 0)
    for m in (-1, -2, -100):
        with pytest.raises(ValueError, match=f"min_variability_s must be >= 0, got {m}"):
            is_valid_event(series, BOUNDS, m)


def _is_valid_event_reference(series, bounds, min_variability_s):
    """The validity rule one sensor at a time, with dicts."""
    central = bounds.central_ninth()
    prev = {}
    qualifying = 0
    for snap in series.snapshots:
        rows = [
            (vid, k)
            for vid, (x, y, k) in zip(snap.vehicle_ids.tolist(), snap.sensors.tolist())
            if central.x0 <= x < central.x1 and central.y0 <= y < central.y1
        ]
        counts = {}
        for _, k in rows:
            counts[k] = counts.get(k, 0) + 1
        mode = max(counts.items(), key=lambda kv: (kv[1], kv[0]))[0] if counts else None
        qualifying += any(
            abs(k - prev[vid]) > 1e-6 if vid in prev else abs(k - mode) > 1e-6
            for vid, k in rows
        )
        # of an id repeated in one instant the first row counts, as in previous_rows
        prev = dict(reversed(list(zip(snap.vehicle_ids.tolist(), snap.sensors[:, 2].tolist()))))
    return (qualifying - 1) * series.sampling_period_s > min_variability_s


@given(seed=st.integers(0, 10_000), n_snaps=st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_validity_matches_per_sensor_reference(seed, n_snaps):
    # churning ids, positions on the central rectangle's edges, and few
    # k* levels so modal ties and unchanged values are common
    rng = np.random.default_rng(seed)
    c = BOUNDS.central_ninth()
    xs = np.array([0.0, c.x0, 300.0, c.x1, 600.0])
    ys = np.array([0.0, c.y0, 450.0, c.y1, 900.0])
    snaps = []
    for t in range(n_snaps):
        ids = np.flatnonzero(rng.random(8) < 0.7)
        rng.shuffle(ids)
        kstar = rng.choice([0.09, 0.5, 1.2], ids.size)
        sensors = np.column_stack([rng.choice(xs, ids.size), rng.choice(ys, ids.size), kstar])
        snaps.append(SensorSnapshot(t=t, sensors=sensors, vehicle_ids=[f"v{i}" for i in ids]))
    series = series_from_snapshots(snaps, MotionTruth(1.0, 0.0))
    for m in (0, 3, 10, 20):
        assert is_valid_event(series, BOUNDS, m) == _is_valid_event_reference(series, BOUNDS, m)


def test_validity_with_an_id_repeated_in_one_instant():
    # two id-less central rows per instant share the id "": the first row,
    # constant at 0.5, is the earlier row of both, so the second row, which
    # flips between 0.5 and 1.2, qualifies only where it reads 1.2
    snaps = [_snapshot(t, [(300.0, 450.0, 0.5), (310.0, 460.0, (0.5, 1.2)[t % 2])], ["", ""])
             for t in range(6)]
    series = series_from_snapshots(snaps, MotionTruth(1.0, 0.0))
    assert series.layout.previous_rows.tolist() == [-1, -1, 0, 0, 2, 2, 4, 4, 6, 6, 8, 8]
    verdicts = [is_valid_event(series, BOUNDS, m) for m in range(5)]
    assert verdicts == [_is_valid_event_reference(series, BOUNDS, m) for m in range(5)]
    assert verdicts == [True, True, False, False, False]


# ------------------------------------------------------- sampling layouts

def _layout_scenario():
    """One dataset for every example, so layouts are kept across calls: 12
    vehicles over 40 s with gaps, a field wide enough for any truth draw,
    and masks keyed by name (building_copy is a new object each call)."""
    rng = np.random.default_rng(5)
    recs = [
        (f"v{i:02d}", t, rng.uniform(0.0, 600.0), rng.uniform(0.0, 900.0))
        for i in range(12)
        for t in range(41)
        if rng.random() < 0.7
    ]
    ds = _fleet(recs, 40)
    # 128 px at 24 m: 3072 m covers a 1082 m diagonal plus 40 s at 30 m/s
    field = ClearSkyField(levels=rng.integers(0, 256, (128, 128), dtype=np.uint8), pixel_size_m=24.0)
    building = rng.random((18, 12)) < 0.3

    def mask(raster):
        return ShadowMask(mask=raster, origin=(0.0, 0.0), pixel_size_m=50.0)

    masks = {
        "none": None,
        "lit": mask(np.zeros((18, 12), dtype=bool)),
        "building": mask(building),
        "dark": mask(np.ones((18, 12), dtype=bool)),
    }
    return ds, field, masks, lambda: mask(building)


_LAYOUT_DS, _LAYOUT_FIELD, _LAYOUT_MASKS, _building_copy = _layout_scenario()


@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["none", "lit", "building", "building_copy", "dark"]),
            st.sampled_from([1, 2, 5]),
            st.integers(1, 8),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_layout_memo_matches_per_instant_reference(calls):
    # interleaved masks, periods, durations and truths on one dataset: each
    # series equals the per-instant sampling of a fresh copy, its export the
    # per-snapshot formatter's bytes and its verdict the per-sensor rule's
    with tempfile.TemporaryDirectory() as tmp:
        got_csv, want_csv = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        for mask_kind, period, steps, seed in calls:
            mask = _building_copy() if mask_kind == "building_copy" else _LAYOUT_MASKS[mask_kind]
            cfg = TransitConfig(period * steps, period, seed=seed)
            truth = draw_truth(seed)
            got = run_transit(_LAYOUT_FIELD, _LAYOUT_DS, mask, truth, cfg)
            fresh = pickle.loads(pickle.dumps(_LAYOUT_DS))
            want = run_transit_per_instant(_LAYOUT_FIELD, fresh, mask, truth, cfg)
            assert [s.t for s in got.snapshots] == [s.t for s in want.snapshots]
            for g, w in zip(got.snapshots, want.snapshots):
                assert g.sensors.tobytes() == w.sensors.tobytes()
                assert g.sensors.shape == w.sensors.shape
                assert g.vehicle_ids.tolist() == w.vehicle_ids.tolist()
            export_series(got, cfg, got_csv)
            export_series_per_snapshot(want, cfg, want_csv)
            assert got_csv.read_bytes() == want_csv.read_bytes()
            for m in (0, 2, 10):
                expected = _is_valid_event_reference(want, BOUNDS, m)
                assert is_valid_event(got, BOUNDS, m) == expected


def test_layout_kept_per_duration_period_and_mask_object():
    field = _flat_field()
    ds = _static_fleet([(100.0, 100.0), (500.0, 800.0)], 20)
    lit = ShadowMask(mask=np.zeros((18, 12), dtype=bool), origin=(0.0, 0.0), pixel_size_m=50.0)
    first = run_transit(field, ds, lit, MotionTruth(3.0, 10.0), TransitConfig(10, 1))
    again = run_transit(field, ds, lit, MotionTruth(7.0, 200.0), TransitConfig(10, 1, seed=4))
    assert again.layout is first.layout
    equal_raster = ShadowMask(mask=lit.mask, origin=(0.0, 0.0), pixel_size_m=50.0)
    for mask, cfg in ((equal_raster, TransitConfig(10, 1)), (lit, TransitConfig(10, 2)),
                      (lit, TransitConfig(20, 1)), (None, TransitConfig(10, 1))):
        other = run_transit(field, ds, mask, MotionTruth(3.0, 10.0), cfg)
        assert other.layout is not first.layout
        assert run_transit(field, ds, mask, MotionTruth(3.0, 10.0), cfg).layout is other.layout
    # a pickled dataset starts without a layout
    copy = pickle.loads(pickle.dumps(ds))
    assert run_transit(field, copy, None, MotionTruth(3.0, 10.0), TransitConfig(10, 1)).layout \
        is not other.layout


def test_validity_memo_serves_any_bounds():
    # the same-vehicle rows are kept on the layout and do not depend on the
    # bounds: alternating two areas on one layout keeps the per-sensor verdicts
    cfg = TransitConfig(40, 1)
    series = run_transit(_LAYOUT_FIELD, _LAYOUT_DS, None, draw_truth(11), cfg)
    layout = series.layout
    previous = layout.previous_rows
    quarter = Rect(0.0, 0.0, 300.0, 450.0)
    for bounds in (BOUNDS, quarter, BOUNDS, quarter):
        for m in (0, 2, 10):
            assert is_valid_event(series, bounds, m) == _is_valid_event_reference(series, bounds, m)
    assert layout.previous_rows is previous
    # the first row of each vehicle has no earlier row; every other row's
    # earlier row is the same vehicle's, one instant before
    ids, t = layout.vehicle_ids, layout.t
    last = {}
    for row, (vid, when) in enumerate(zip(ids.tolist(), t.tolist())):
        want = last.get((vid, when - 1), -1)
        assert previous[row] == want, (row, vid, when)
        last[vid, when] = row


def test_validity_memo_on_ids_out_of_code_order():
    # ids get their codes in string order (v1 < v10 < v2); instants list
    # them v10, v2, v1 or v2, v10 or shuffled, so the (instant, code) keys
    # are unsorted and the memo's stable argsort has to match them
    rng = np.random.default_rng(3)
    c = BOUNDS.central_ninth()
    snaps = []
    for t in range(12):
        ids = [f"v{i}" for i in rng.permutation([1, 2, 10, 11, 20])[: rng.integers(2, 6)]]
        head = [["v10", "v2", "v1"], ["v2", "v10"], []][t % 3]
        ids = head + [i for i in ids if i not in head]
        rows = [(rng.uniform(c.x0, c.x1), rng.uniform(c.y0, c.y1), rng.choice([0.09, 1.2]))
                for _ in ids]
        snaps.append(_snapshot(t, rows, ids))
    series = series_from_snapshots(snaps, MotionTruth(1.0, 0.0))
    layout = series.layout
    codes = np.unique(layout.vehicle_ids, return_inverse=True)[1]
    for a, b in zip(layout.cuts[:2], layout.cuts[1:3]):
        assert np.any(np.diff(codes[a:b]) < 0)
    for m in (0, 2, 5, 8):
        assert is_valid_event(series, BOUNDS, m) == _is_valid_event_reference(series, BOUNDS, m)


def test_layout_memos_stay_out_of_repr_and_pickles():
    memos = ("row_text", "neighbour_rows", "_previous")
    fields = dataclasses.fields(SamplingLayout)
    assert tuple(f.name for f in fields[-3:]) == memos
    assert not any(f.repr for f in fields[-3:])
    field = _flat_field()
    ds = _static_fleet([(300.0, 450.0), (250.0, 400.0)], 10)
    series = run_transit(field, ds, None, MotionTruth(3.0, 10.0), TransitConfig(10, 1))
    is_valid_event(series, BOUNDS, 0)
    grid_series(series, GridSpec(BOUNDS, 100.0), 2)
    assert series.layout._previous is not None and "_previous" not in repr(series.layout)
    assert series.layout.neighbour_rows and "neighbour_rows" not in repr(series.layout)
    # a pickled dataset starts without a layout, so without its memos
    copy = pickle.loads(pickle.dumps(ds))
    assert copy._layout is None
    fresh = run_transit(field, copy, None, MotionTruth(3.0, 10.0), TransitConfig(10, 1)).layout
    assert fresh is not series.layout and fresh._previous is None and fresh.neighbour_rows == {}


def test_layout_columns_are_read_only():
    # the layout's memos hold only while its rows cannot change
    ds = _static_fleet([(300.0, 450.0), (250.0, 400.0)], 10)
    layout = run_transit(_flat_field(), ds, None, MotionTruth(3.0, 10.0), TransitConfig(10, 1)).layout
    for column in (layout.t, layout.x, layout.y, layout.vehicle_ids):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]


def test_layout_not_kept_on_mask_coverage_error():
    field = _flat_field()
    ds = _static_fleet([(100.0, 100.0), (500.0, 800.0)], 10)
    small = ShadowMask(mask=np.zeros((2, 2), dtype=bool), origin=(0.0, 0.0), pixel_size_m=50.0)
    kept = run_transit(field, ds, None, MotionTruth(3.0, 10.0), TransitConfig(10, 1)).layout
    for _ in range(2):
        with pytest.raises(MaskCoverageError, match="outside mask raster"):
            run_transit(field, ds, small, MotionTruth(3.0, 10.0), TransitConfig(10, 1))
    assert run_transit(field, ds, None, MotionTruth(1.0, 0.0), TransitConfig(10, 1)).layout is kept


def _snapshot(t, rows, ids=None):
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    ids = [f"v{i}" for i in range(len(rows))] if ids is None else ids
    return SensorSnapshot(t=t, sensors=rows, vehicle_ids=ids)


_OFF_TABLE = [0.1234565, 1e-7, -0.0, 1.2, float("nan"), float("inf"), -3.5]


def test_kstar_text_is_percent_format_without_warnings():
    # level values, their nearest neighbours either side, values off the
    # table (NaN and +-inf among them) and wider text, with warnings raised
    levels = _LEVEL_KSTAR.astype(np.float64)
    wide = [10.0, 12.3456785, 1e300, -10.0, -123.4567894, -1e300, -np.inf]
    kstar = np.concatenate([
        levels, np.nextafter(levels, -np.inf), np.nextafter(levels, np.inf), _OFF_TABLE, wide,
    ])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert _kstar_text(kstar) == ["%.6f\n" % k for k in kstar.tolist()]


@pytest.mark.parametrize(
    "snapshots",
    [
        # k* off the level table next to level values; x and y at rounding edges
        (
            _snapshot(0, [(0.0005, -0.0, k) for k in _OFF_TABLE]),
            _snapshot(1, [(-12.3456, 1e6, k) for k in _LEVEL_KSTAR[[0, 17, 128, 255]].tolist()]),
        ),
        # empty instants between sampled ones, and rows without ids
        (_snapshot(0, []), _snapshot(1, [(1.0, 2.0, 0.5)]), _snapshot(2, []),
         _snapshot(3, [(3.0, 4.0, _LEVEL_KSTAR[9])], ids=[])),
        # every instant empty (an all-shadowed mask): header only
        (_snapshot(0, []), _snapshot(1, [])),
        (),
    ],
    ids=["off-table", "empty-instants", "all-empty", "no-snapshots"],
)
def test_export_hand_built_matches_per_snapshot_reference(tmp_path, snapshots):
    series = series_from_snapshots(snapshots, MotionTruth(2.5, 45.0))
    cfg = TransitConfig(len(snapshots) or 1, 1, seed=3)
    export_series(series, cfg, tmp_path / "got.csv")
    export_series_per_snapshot(series, cfg, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_export_all_shadowed_layout_gives_header_only(tmp_path):
    dark = _LAYOUT_MASKS["dark"]
    cfg = TransitConfig(10, 1)
    series = run_transit(_LAYOUT_FIELD, _LAYOUT_DS, dark, MotionTruth(3.0, 0.0), cfg)
    export_series(series, cfg, tmp_path / "got.csv")
    export_series_per_snapshot(series, cfg, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_text()
    assert got == (tmp_path / "want.csv").read_text() and got.splitlines()[1:] == ["t,x,y,kstar"]
