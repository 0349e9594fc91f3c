"""Shared test constructions: exact-translation grid series and friends."""
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from cloudmotion.fleet import SamplingLayout, SensorSnapshot
from cloudmotion.fractal_field import _LEVEL_KSTAR, ClearSkyField
from cloudmotion.gridding import GridSeries
from cloudmotion.rasters import read_pgm, sidecar_path, write_pgm
from cloudmotion.transit import FieldSizingError, MeasurementSeries, default_field_anchor


def field_kstar(field):
    """float32 k* of every pixel of a ClearSkyField, as a new full-size array."""
    return _LEVEL_KSTAR[field.levels]


def run_transit_per_instant(field, ds, mask, truth, cfg):
    """run_transit one sampling instant at a time: the reference for its one-pass lookup.

    Each instant slices its records, drops the shadowed ones with one mask
    lookup and reads the field at the rest.
    """
    anchor = cfg.field_anchor
    if anchor is None:
        anchor = default_field_anchor(field, ds.bounds, truth, cfg.duration_s)
    v = truth.velocity
    pix, extent = field.pixel_size_m, field.extent_m
    snaps = []
    for t in cfg.sample_times:
        recs = ds.records_at(t)
        if mask is not None:
            recs = recs[~mask.is_shadowed(recs["x"], recs["y"])]
        qx = recs["x"] - anchor[0] - t * v[0]
        qy = recs["y"] - anchor[1] - t * v[1]
        if len(recs) and (qx.min() < 0 or qy.min() < 0 or qx.max() > extent or qy.max() > extent):
            raise FieldSizingError(
                f"lookup left the field raster at t={t}; "
                f"extent {extent:.0f} m is too small for this transit"
            )
        ix = np.minimum((qx / pix).astype(np.int64), field.side_px - 1)
        iy = np.minimum((qy / pix).astype(np.int64), field.side_px - 1)
        sensors = np.column_stack([recs["x"], recs["y"], _LEVEL_KSTAR[field.levels[iy, ix]]])
        snaps.append(SensorSnapshot(t=t, sensors=sensors, vehicle_ids=recs["vehicle_id"]))
    return SimpleNamespace(
        snapshots=tuple(snaps), truth=truth, sampling_period_s=cfg.sampling_period_s
    )


def series_from_snapshots(snapshots, truth, sampling_period_s=1):
    """A MeasurementSeries of hand-built SensorSnapshots at t = 0, p, 2p, ...

    Their rows become one SamplingLayout without a mask; rows without
    vehicle ids get the id "".
    """
    p = sampling_period_s
    assert [s.t for s in snapshots] == list(range(0, len(snapshots) * p, p))
    counts = [len(s.sensors) for s in snapshots]
    rows = np.concatenate([s.sensors for s in snapshots] + [np.empty((0, 3))])
    ids = [s.vehicle_ids if s.vehicle_ids.size else [""] * n for s, n in zip(snapshots, counts)]
    layout = SamplingLayout(
        (len(snapshots) - 1) * p, p, None,
        t=np.repeat(np.arange(len(snapshots), dtype=np.int64) * p, counts),
        x=rows[:, 0].copy(),
        y=rows[:, 1].copy(),
        vehicle_ids=np.concatenate([np.asarray(i, dtype=str) for i in ids] + [np.array([], str)]),
        cuts=np.cumsum([0] + counts).tolist(),
    )
    return MeasurementSeries(layout, rows[:, 2].copy(), truth)


def export_series_per_snapshot(series, cfg, path):
    """export_series one snapshot at a time, one %-format each: the reference
    for its memoised row text and table-indexed k* text."""
    header = {
        "truth": {"speed_mps": series.truth.speed, "direction_deg": series.truth.direction_deg},
        "duration_s": cfg.duration_s,
        "sampling_period_s": cfg.sampling_period_s,
        "seed": cfg.seed,
    }
    parts = ["# " + json.dumps(header, sort_keys=True) + "\nt,x,y,kstar\n"]
    for snap in series.snapshots:
        row = f"{snap.t},%.3f,%.3f,%.6f\n"
        parts.append((row * len(snap.sensors)) % tuple(snap.sensors.ravel().tolist()))
    Path(path).write_text("".join(parts))


def read_clearsky_pgm(path):
    """ClearSkyField of a PGM and its pixel-size sidecar, as write_clearsky_pgm writes them."""
    levels = read_pgm(path)
    if levels.shape[0] != levels.shape[1]:
        raise ValueError(f"{path}: clear-sky fields are square rasters")
    pixel_size = float(sidecar_path(path).read_text().split()[0])
    return ClearSkyField(levels=levels, pixel_size_m=pixel_size)


def write_shadow_mask(mask, pgm_path):
    """A ShadowMask as load_shadow_mask reads it: PGM levels plus its origin/pixel sidecar."""
    write_pgm(pgm_path, np.where(mask.mask, 0, 255).astype(np.uint8))
    sidecar_path(pgm_path).write_text(
        f"{mask.origin[0]:g} {mask.origin[1]:g} {mask.pixel_size_m:g}\n"
    )


def grid_block(values, valid=None, spacing_s=10):
    """A GridSeries of hand-made (ny, nx) grids at t = 0, spacing_s, 2 spacing_s, ...

    valid defaults to every grid; the rows of invalid grids become NaN, as
    grid_series writes them.
    """
    values = np.array(values, dtype=np.float64)
    valid = np.ones(len(values), bool) if valid is None else np.array(valid, dtype=bool)
    values[~valid] = np.nan
    return GridSeries(range(0, len(values) * spacing_s, spacing_s), values, valid)


def translation_grids(seed, ny, nx, dx, dy, n_snaps, spacing_s=10, low=0.09, high=1.2):
    """A grid series that translates by exactly (dx, dy) cells per spacing.

    Grid k is a window into one random base array, with the window origin
    moving by (-dx, -dy) per step so the pattern seen through the window
    moves by (+dx, +dy): G_{k+1}(cell) == G_k(cell - (dx, dy)).
    """
    rng = np.random.default_rng(seed)
    pad_x, pad_y = n_snaps * abs(dx) + 1, n_snaps * abs(dy) + 1
    base = rng.uniform(low, high, (ny + 2 * pad_y, nx + 2 * pad_x))
    windows = [base[pad_y - k * dy : pad_y - k * dy + ny, pad_x - k * dx : pad_x - k * dx + nx]
               for k in range(n_snaps)]
    return grid_block(windows, spacing_s=spacing_s)
