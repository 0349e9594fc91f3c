import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudmotion.fleet import (
    EmptyDatasetError,
    MaskCoverageError,
    ShadowMask,
    TrajectoryDataset,
    TrajectoryParseError,
    load_shadow_mask,
    load_trajectories,
    subsample_by_penetration,
    trajectory_table,
)
from cloudmotion.fractal_field import ClearSkyField
from cloudmotion.geometry import Rect
from cloudmotion.transit import MotionTruth, TransitConfig, run_transit
from helpers import write_shadow_mask

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def _write(tmp_path, text, name="traj.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _make_ds(n_ids=10, n_t=3):
    recs = [(f"v{i:02d}", t, 5.0 + 9.0 * i, 50.0) for t in range(n_t) for i in range(n_ids)]
    return TrajectoryDataset(trajectory_table(*zip(*recs)), (0, n_t - 1), BOUNDS)


# ---------------------------------------------------------------- ingestion

def test_load_minimal_file(tmp_path):
    path = _write(tmp_path, "t,vehicle_id,x,y\n0,a,1,2\n1,a,3,4\n2,a,5,6\n")
    ds = load_trajectories(path, BOUNDS)
    assert len(ds.table) == 3
    assert ds.window == (0, 2)
    assert ds.table[0].tolist() == ("a", 0, 1.0, 2.0)


def test_load_rebases_time_to_window_start(tmp_path):
    path = _write(tmp_path, "t,vehicle_id,x,y\n700,a,1,2\n701,a,3,4\n")
    ds = load_trajectories(path, BOUNDS)
    assert ds.window == (700, 701)
    assert ds.table["t"].tolist() == [0, 1]


def test_load_filters_out_of_bounds(tmp_path):
    path = _write(tmp_path, "t,vehicle_id,x,y\n0,a,1,2\n0,b,500,2\n1,a,3,4\n")
    ds = load_trajectories(path, BOUNDS)
    assert len(ds.table) == 2
    assert (ds.table["vehicle_id"] == "a").all()


def test_load_duplicate_key_is_parse_error(tmp_path):
    path = _write(tmp_path, "t,vehicle_id,x,y\n0,a,1,2\n0,a,3,4\n")
    with pytest.raises(TrajectoryParseError, match=r"\('a', 0\)"):
        load_trajectories(path, BOUNDS)


def test_load_reports_line_numbers(tmp_path):
    path = _write(tmp_path, "t,vehicle_id,x,y\n0,a,1,2\nnot-a-number,b,1,2\n")
    with pytest.raises(TrajectoryParseError, match="line 3"):
        load_trajectories(path, BOUNDS)


def test_load_rejects_time_out_of_range(tmp_path):
    # an int64 overflow would escape as OverflowError, outside the CLI's exit codes
    path = _write(tmp_path, "t,vehicle_id,x,y\n0,a,1,2\n99999999999999999999,b,500,2\n")
    with pytest.raises(TrajectoryParseError, match="line 3: time .* out of range"):
        load_trajectories(path, BOUNDS)


def test_load_missing_header(tmp_path):
    path = _write(tmp_path, "time,id,x,y\n0,a,1,2\n")
    with pytest.raises(TrajectoryParseError, match="header"):
        load_trajectories(path, BOUNDS)


def test_load_empty_is_error(tmp_path):
    path = _write(tmp_path, "t,vehicle_id,x,y\n0,a,999,999\n")
    with pytest.raises(EmptyDatasetError):
        load_trajectories(path, BOUNDS)


def test_load_respects_explicit_window(tmp_path):
    path = _write(tmp_path, "t,vehicle_id,x,y\n0,a,1,2\n5,a,3,4\n9,a,5,6\n")
    ds = load_trajectories(path, BOUNDS, window=(5, 9))
    assert ds.table["t"].tolist() == [0, 4]


def test_dataset_sorts_by_time_then_id():
    recs = [("v2", 1, 0.0, 0.0), ("v10", 0, 1.0, 1.0), ("v1", 1, 2.0, 2.0), ("v2", 0, 3.0, 3.0)]
    ds = TrajectoryDataset(trajectory_table(*zip(*recs)), (0, 1), BOUNDS)
    assert ds.table[["vehicle_id", "t"]].tolist() == [("v10", 0), ("v2", 0), ("v1", 1), ("v2", 1)]
    assert ds.records_at(1)["x"].tolist() == [2.0, 0.0]
    assert not ds.table.flags.writeable


def test_records_at_slices_each_instant_of_the_table():
    rng = np.random.default_rng(5)
    n, length = 40, 12
    t = rng.integers(0, length + 1, n)
    t[t == 4] = 5  # an instant with no record
    ds = TrajectoryDataset(trajectory_table([f"v{i}" for i in range(n)], t, rng.uniform(0, 100, n),
                                            rng.uniform(0, 100, n)), (0, length), BOUNDS)
    for at in range(-1, length + 2):
        assert np.array_equal(ds.records_at(at), ds.table[ds.table["t"] == at])
    assert len(ds.records_at(4)) == 0


def _reference_load(path, rows, bounds, window):
    """The tuple algorithm: bounds, then window, rebase, duplicates, (t, id) sort."""
    inside = [r for r in rows if bounds.x0 <= r[2] <= bounds.x1 and bounds.y0 <= r[3] <= bounds.y1]
    raw = [(vid, t, x, y) for t, vid, x, y in inside]
    if window is None:
        if not raw:
            raise EmptyDatasetError(f"{path}: no records inside bounds")
        window = (min(r[1] for r in raw), max(r[1] for r in raw))
    kept, seen = [], set()
    for vid, t, x, y in raw:
        if not window[0] <= t <= window[1]:
            continue
        if (vid, t) in seen:
            raise TrajectoryParseError(f"{path}: duplicate record for {(vid, t)}")
        seen.add((vid, t))
        kept.append((vid, t - window[0], x, y))
    if not kept:
        raise EmptyDatasetError(f"{path}: no records inside bounds and window")
    kept.sort(key=lambda r: (r[1], r[0]))
    return kept, window


_EDGES = (-0.5, 0.0, 0.25, 50.0, 100.0, 100.5)  # BOUNDS edges are 0 and 100
_ROW = st.tuples(
    st.sampled_from(["v1", "v10", "v2", "a"]),
    st.integers(0, 9),
    st.sampled_from(_EDGES),
    st.sampled_from(_EDGES),
)


@given(
    rows=st.lists(_ROW, max_size=30, unique_by=lambda r: r[:2]),
    repeats=st.lists(_ROW, max_size=3),
    window=st.none() | st.tuples(st.integers(0, 4), st.integers(4, 9)),
    t0=st.sampled_from([0, 700]),
    shuffle=st.integers(0, 2**32 - 1),
)
@example(  # a repeated key with one copy outside the bounds loads
    rows=[("a", 0, 0.0, 0.0)], repeats=[("a", 0, 100.5, 50.0)], window=None, t0=0, shuffle=0
)
@example(  # a repeated key outside the window loads
    rows=[("a", 0, 50.0, 50.0), ("a", 5, 100.0, 100.0)], repeats=[("a", 0, 50.0, 50.0)],
    window=(3, 9), t0=700, shuffle=1,
)
@example(  # a repeated key inside both is named with the file's own time
    rows=[("v1", 3, 50.0, 50.0)], repeats=[("v1", 3, 0.0, 100.0)], window=None, t0=700, shuffle=2
)
@example(  # of two repeated keys the one repeated first in the file is named
    rows=[("a", 1, 50.0, 50.0), ("b", 2, 50.0, 50.0)],
    repeats=[("a", 1, 0.0, 0.0), ("b", 2, 0.0, 0.0)], window=None, t0=0, shuffle=3,
)
@settings(max_examples=150, deadline=None)
def test_load_matches_tuple_reference(tmp_path_factory, rows, repeats, window, t0, shuffle):
    file_rows = [(t + t0, vid, x, y) for vid, t, x, y in rows + repeats]
    file_rows = [file_rows[i] for i in np.random.default_rng(shuffle).permutation(len(file_rows))]
    if window is not None:
        window = (window[0] + t0, window[1] + t0)
    path = tmp_path_factory.getbasetemp() / "reference.csv"
    lines = [f"{t},{vid},{x!r},{y!r}\n" for t, vid, x, y in file_rows]
    path.write_text("t,vehicle_id,x,y\n" + "".join(lines))
    try:
        kept, expected_window = _reference_load(path, file_rows, BOUNDS, window)
    except (TrajectoryParseError, EmptyDatasetError) as exc:
        with pytest.raises(type(exc)) as got:
            load_trajectories(path, BOUNDS, window)
        assert str(got.value) == str(exc)
        return
    ds = load_trajectories(path, BOUNDS, window)
    assert ds.table.tolist() == kept
    assert ds.window == expected_window


# ------------------------------------------------------------- subsampling

def test_subsample_identity_at_full_penetration():
    ds = _make_ds()
    assert subsample_by_penetration(ds, 1.0, seed=0).table.tolist() == ds.table.tolist()


def test_subsample_keeps_whole_vehicles():
    ds = _make_ds(n_ids=100, n_t=4)
    sub = subsample_by_penetration(ds, 0.5, seed=1)
    kept = set(sub.table["vehicle_id"].tolist())
    assert len(kept) == 50
    # every kept vehicle keeps all of its records
    for vid in kept:
        assert np.count_nonzero(sub.table["vehicle_id"] == vid) == 4


def test_subsample_seeded_regression():
    # frozen draw: sorted ids v00..v09, seed 123, pr 0.4
    ds = _make_ds(n_ids=10)
    sub = subsample_by_penetration(ds, 0.4, seed=123)
    assert sorted(set(sub.table["vehicle_id"].tolist())) == ["v00", "v02", "v04", "v07"]


def test_subsample_rejects_bad_rate():
    ds = _make_ds()
    for pr in (0.0, -0.1, 1.01):
        with pytest.raises(ValueError):
            subsample_by_penetration(ds, pr, seed=0)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_subsample_nested_across_rates(seed):
    ds = _make_ds(n_ids=20)
    previous: set = set()
    for pr in (0.2, 0.5, 0.8, 1.0):
        ids = set(subsample_by_penetration(ds, pr, seed=seed).table["vehicle_id"].tolist())
        assert previous <= ids
        previous = ids


# ------------------------------------------------------------ shadow masks

def _checkerboard_mask():
    mask = np.zeros((10, 10), dtype=bool)
    mask[::2, ::2] = True
    return ShadowMask(mask=mask, origin=(0.0, 0.0), pixel_size_m=10.0)


def test_mask_lookup_pixel_convention():
    m = _checkerboard_mask()
    assert m.is_shadowed(5.0, 5.0)  # pixel (0, 0) is shadowed
    assert not m.is_shadowed(15.0, 5.0)  # pixel (0, 1) is lit
    # an edge point belongs to the higher-index pixel
    assert not m.is_shadowed(10.0, 0.0)


def test_mask_lookup_arrays_on_pixel_edges():
    m = _checkerboard_mask()
    # every point sits on a pixel edge and belongs to the higher-index pixel
    x = np.array([0.0, 10.0, 20.0, 10.0, 0.0, 90.0])
    y = np.array([0.0, 0.0, 20.0, 10.0, 10.0, 90.0])
    expected = [True, False, True, False, False, False]
    assert m.is_shadowed(x, y).tolist() == expected
    assert [bool(m.is_shadowed(a, b)) for a, b in zip(x, y)] == expected
    assert m.is_shadowed(x.reshape(2, 3), y.reshape(2, 3)).shape == (2, 3)
    assert m.is_shadowed(np.empty(0), np.empty(0)).shape == (0,)


def test_mask_coverage_error():
    m = _checkerboard_mask()
    with pytest.raises(MaskCoverageError):
        m.is_shadowed(150.0, 5.0)
    # the far raster edge (x = 100) is already off the raster
    for off in ((100.0, 5.0), (5.0, -0.001), (150.0, 5.0)):
        x = np.array([5.0, 15.0, off[0], 95.0])
        y = np.array([5.0, 5.0, off[1], 95.0])
        with pytest.raises(MaskCoverageError, match="outside mask raster"):
            m.is_shadowed(x, y)


def test_mask_raster_is_a_read_only_copy():
    raster = np.zeros((10, 10), dtype=bool)
    m = ShadowMask(mask=raster, origin=(0.0, 0.0), pixel_size_m=10.0)
    with pytest.raises(ValueError, match="read-only"):
        m.mask[0, 0] = True
    raster[0, 0] = True  # the caller's array stays theirs
    assert not m.is_shadowed(5.0, 5.0)


def test_mask_round_trip(tmp_path):
    m = _checkerboard_mask()
    path = tmp_path / "mask.pgm"
    write_shadow_mask(m, path)
    back = load_shadow_mask(path)
    assert np.array_equal(back.mask, m.mask)
    assert back.origin == (0.0, 0.0)
    assert back.pixel_size_m == 10.0


@pytest.mark.parametrize("pixel", ["0", "-10", "nan", "inf"])
def test_mask_sidecar_pixel_size_positive_and_finite(tmp_path, pixel):
    path = tmp_path / "mask.pgm"
    write_shadow_mask(_checkerboard_mask(), path)
    path.with_suffix(".txt").write_text(f"0 0 {pixel}\n")
    with pytest.raises(ValueError, match="pixel size must be positive and finite"):
        load_shadow_mask(path)


@pytest.mark.parametrize("origin", ["nan 0", "0 inf", "-inf nan"])
def test_mask_sidecar_origin_finite(tmp_path, origin):
    path = tmp_path / "mask.pgm"
    write_shadow_mask(_checkerboard_mask(), path)
    path.with_suffix(".txt").write_text(f"{origin} 10\n")
    with pytest.raises(ValueError, match="origin must be finite"):
        load_shadow_mask(path)


def _active(ds, mask, t):
    """The snapshot at instant t of a transit of a still field over ds."""
    field = ClearSkyField(levels=np.zeros((128, 128), dtype=np.uint8), pixel_size_m=1.0)
    cfg = TransitConfig(ds.duration_s, 1, field_anchor=(0.0, 0.0))
    return run_transit(field, ds, mask, MotionTruth(0.0, 0.0), cfg).snapshots[t]


def _positions(ds, mask, t):
    return _active(ds, mask, t).sensors[:, :2].tolist()


def test_active_sensors_mask_exclusion():
    ds = _make_ds(n_ids=4)  # x = 5, 14, 23, 32 at y = 50
    mask = np.zeros((10, 10), dtype=bool)
    mask[5, 0] = True  # shadow over x in [0, 10), y in [50, 60)
    m = ShadowMask(mask=mask, origin=(0.0, 0.0), pixel_size_m=10.0)
    with_mask = _positions(ds, m, 0)
    without = _positions(ds, None, 0)
    assert len(without) == 4
    assert len(with_mask) == 3
    assert [5.0, 50.0] not in with_mask
    assert _active(ds, m, 0).vehicle_ids.tolist() == ["v01", "v02", "v03"]


def test_active_sensors_all_lit_mask_is_identity():
    ds = _make_ds(n_ids=4)
    m = ShadowMask(mask=np.zeros((10, 10), dtype=bool), origin=(0.0, 0.0), pixel_size_m=10.0)
    lit, every = _active(ds, m, 1), _active(ds, None, 1)
    assert np.array_equal(lit.vehicle_ids, every.vehicle_ids)
    assert np.array_equal(lit.sensors, every.sensors)


@given(st.integers(0, 1000))
@settings(max_examples=20)
def test_mask_never_increases_count(seed):
    rng = np.random.default_rng(seed)
    ds = _make_ds(n_ids=8)
    m = ShadowMask(
        mask=rng.random((10, 10)) < 0.4, origin=(0.0, 0.0), pixel_size_m=10.0
    )
    for t in range(3):
        assert len(_positions(ds, m, t)) <= len(_positions(ds, None, t))
