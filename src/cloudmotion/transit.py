"""Cloud-shadow transits over a mobile sensor network.

A clear-sky-index field sweeps the observation area at constant speed and
direction (degrees clockwise from north; 0 moves north, 90 east).  One
lookup pass reads the field at every active vehicle record of every
sampling instant, nearest pixel, and the rows are cut into the measurement
stream the estimator sees: one SensorSnapshot of (x, y, kstar) array rows
per instant.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .fleet import SensorSnapshot, ShadowMask, TrajectoryDataset
from .fractal_field import _LEVEL_KSTAR, ClearSkyField
from .geometry import Rect

SPEED_MIN_MPS = 1.0
SPEED_MAX_MPS = 30.0


class FieldSizingError(ValueError):
    """A displaced lookup left the field raster: the field is too small."""


@dataclass(frozen=True)
class MotionTruth:
    """Ground-truth shadow motion: speed (m/s), direction (deg CW from north)."""

    speed: float
    direction_deg: float

    def __post_init__(self) -> None:
        if self.speed < 0:
            raise ValueError("speed must be non-negative")
        if not 0.0 <= self.direction_deg < 360.0:
            raise ValueError("direction must be in [0, 360)")

    @property
    def velocity(self) -> np.ndarray:
        """(vx, vy) in m/s; x east, y north."""
        theta = math.radians(self.direction_deg)
        return np.array([self.speed * math.sin(theta), self.speed * math.cos(theta)])


@dataclass(frozen=True)
class TransitConfig:
    duration_s: int = 300
    sampling_period_s: int = 1
    field_anchor: Optional[tuple] = None  # None: center the sweep on the area
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.sampling_period_s <= 0:
            raise ValueError("duration and sampling period must be positive")
        if self.duration_s % self.sampling_period_s != 0:
            raise ValueError("duration_s must be divisible by sampling_period_s")

    @property
    def sample_times(self) -> range:
        return range(0, self.duration_s + 1, self.sampling_period_s)


@dataclass(frozen=True)
class MeasurementSeries:
    """Snapshots at uniform spacing, first to last sampling instant inclusive."""

    snapshots: tuple
    truth: MotionTruth
    sampling_period_s: int

    def __post_init__(self) -> None:
        ts = [s.t for s in self.snapshots]
        if any(b - a != self.sampling_period_s for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshots must be uniformly spaced by the sampling period")


def draw_truth(rng_seed: int) -> MotionTruth:
    """Seeded uniform draw: speed on [1, 30] m/s, direction on [0, 360) deg."""
    rng = np.random.default_rng(rng_seed)
    speed = rng.uniform(SPEED_MIN_MPS, SPEED_MAX_MPS)
    direction = rng.uniform(0.0, 360.0)
    return MotionTruth(speed=float(speed), direction_deg=float(direction) % 360.0)


def default_field_anchor(
    field: ClearSkyField, bounds: Rect, truth: MotionTruth, duration_s: int
) -> tuple:
    """Anchor so the swept lookups stay centered in the field.

    The lookup point drifts by -t*v over the transit, so the field is
    centered on the observation area at mid-transit.  With that placement a
    field of extent duration*speed + bounds.diagonal is exactly sufficient.
    """
    cx, cy = bounds.center
    half = 0.5 * field.extent_m
    v = truth.velocity
    return (
        cx - half - 0.5 * duration_s * v[0],
        cy - half - 0.5 * duration_s * v[1],
    )


def run_transit(
    field: ClearSkyField,
    ds: TrajectoryDataset,
    mask: Optional[ShadowMask],
    truth: MotionTruth,
    cfg: TransitConfig,
) -> MeasurementSeries:
    """Sweep the field over the fleet and read it at every sampling instant.

    One pass over the records: keep those at sampling instants, drop the
    ones on shadowed mask pixels, look the field up for all of them at once
    and cut the rows into per-instant snapshots.  The field translates with
    the truth velocity, so the value seen at world position p at time t
    sits at p - anchor - t*v in field coordinates; the containing pixel is
    the nearest-pixel lookup.  Lookups outside the raster mean the field was
    sized or anchored wrong: fail fast, naming the first such instant.
    """
    if ds.duration_s < cfg.duration_s:
        raise ValueError(
            f"dataset covers {ds.duration_s} s but the transit needs {cfg.duration_s} s"
        )
    anchor = cfg.field_anchor
    if anchor is None:
        anchor = default_field_anchor(field, ds.bounds, truth, cfg.duration_s)
    recs = ds.table
    recs = recs[(recs["t"] <= cfg.duration_s) & (recs["t"] % cfg.sampling_period_s == 0)]
    if mask is not None:
        recs = recs[~mask.is_shadowed(recs["x"], recs["y"])]
    t, x, y = recs["t"], recs["x"], recs["y"]
    v = truth.velocity
    qx = x - anchor[0] - t * v[0]
    qy = y - anchor[1] - t * v[1]
    pix = field.pixel_size_m
    extent = field.extent_m
    off = (qx < 0) | (qy < 0) | (qx > extent) | (qy > extent)
    if off.any():
        raise FieldSizingError(
            f"lookup left the field raster at t={t[off][0]}; "
            f"extent {extent:.0f} m is too small for this transit"
        )
    ix = np.minimum((qx / pix).astype(np.int64), field.side_px - 1)
    iy = np.minimum((qy / pix).astype(np.int64), field.side_px - 1)
    sensors = np.column_stack([x, y, _LEVEL_KSTAR[field.levels[iy, ix]]])
    ids = recs["vehicle_id"]
    # rows are sorted by (t, vehicle_id) and every t is a sampling instant
    cuts = np.searchsorted(t, cfg.sample_times).tolist() + [len(t)]
    snaps = tuple(
        SensorSnapshot(t=s, sensors=sensors[a:b], vehicle_ids=ids[a:b])
        for s, a, b in zip(cfg.sample_times, cuts, cuts[1:])
    )
    return MeasurementSeries(
        snapshots=snaps, truth=truth, sampling_period_s=cfg.sampling_period_s
    )


def is_valid_event(
    series: MeasurementSeries, bounds: Rect, min_variability_s: int = 60
) -> bool:
    """Did the central ninth of the area see enough irradiance variability?

    An instant qualifies when at least one sensor inside the central
    rectangle registers a change: its k* moved by more than 1e-6 since the
    same vehicle's sample one period earlier, or -- for vehicles without
    one -- differs by more than 1e-6 from the instant's modal central value.
    Qualifying instants need not be contiguous; the event is valid when they
    span more than min_variability_s, i.e. (count - 1) * period exceeds it.
    Snapshots without vehicle ids have no per-vehicle history and never
    qualify.  The modal value's ties go to the larger (clearer) one.
    """
    if not series.snapshots:
        raise ValueError("empty measurement series")
    c = bounds.central_ninth()
    tol = 1e-6
    prev_ids, prev_k = np.empty(0, dtype=str), np.empty(0)
    qualifying = 0
    for snap in series.snapshots:
        ids = snap.vehicle_ids
        x, y, k = snap.sensors[: len(ids)].T
        central = (c.x0 <= x) & (x < c.x1) & (c.y0 <= y) & (y < c.y1)
        ids_c, k_c = ids[central], k[central]
        if k_c.size:
            values, counts = np.unique(k_c, return_counts=True)
            reference = np.full(k_c.shape, values[counts == counts.max()][-1])
            _, here, before = np.intersect1d(
                ids_c, prev_ids, assume_unique=True, return_indices=True
            )
            reference[here] = prev_k[before]
            qualifying += bool((np.abs(k_c - reference) > tol).any())
        prev_ids, prev_k = ids, k
    return (qualifying - 1) * series.sampling_period_s > min_variability_s


def export_series(series: MeasurementSeries, cfg: TransitConfig, path) -> None:
    """Interchange dump: one JSON header line, then t,x,y,kstar rows."""
    header = {
        "truth": {"speed_mps": series.truth.speed, "direction_deg": series.truth.direction_deg},
        "duration_s": cfg.duration_s,
        "sampling_period_s": cfg.sampling_period_s,
        "seed": cfg.seed,
    }
    parts = ["# " + json.dumps(header, sort_keys=True) + "\nt,x,y,kstar\n"]
    for snap in series.snapshots:
        # one %-format per snapshot, over Python floats (faster than numpy scalars)
        row = f"{snap.t},%.3f,%.3f,%.6f\n"
        parts.append((row * len(snap.sensors)) % tuple(snap.sensors.ravel().tolist()))
    Path(path).write_text("".join(parts))
