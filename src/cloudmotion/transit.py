"""Cloud-shadow transits over a mobile sensor network.

A clear-sky-index field sweeps the observation area at constant speed and
direction (degrees clockwise from north; 0 moves north, 90 east).  Which
vehicle records are active at the sampling instants does not depend on the
truth draw, so the dataset keeps them as a SamplingLayout that every series
of the same duration, sampling period and mask shares.  One lookup pass
reads the field at all of its rows, nearest pixel: a measurement series is
that layout plus one k* column.  The layout also keeps what validity and
export need of it, each vehicle's row one instant earlier and the rows'
t,x,y text, so a series pays only for its k*: the modal central values
and the k* text, indexed into a table of the 256 levels by arithmetic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .fleet import SamplingLayout, SensorSnapshot, ShadowMask, TrajectoryDataset
from .fractal_field import _LEVEL_KSTAR, ClearSkyField
from .geometry import Rect

SPEED_MIN_MPS = 1.0
SPEED_MAX_MPS = 30.0

# k* of every 8-bit level as float64, and its "%.6f" text with the row's newline
_KSTAR_F64 = _LEVEL_KSTAR.astype(np.float64)
_KSTAR_TEXT = np.array(["%.6f\n" % k for k in _KSTAR_F64.tolist()], dtype=object)


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def sample_times(self) -> range:
        return range(0, self.duration_s + 1, self.sampling_period_s)


@dataclass(frozen=True)
class MeasurementSeries:
    """One transit: the sampled rows, their clear-sky index and the truth.

    layout holds the rows and their cuts into sampling instants; kstar is
    the float64 k* of each row.  Series of one dataset, duration, sampling
    period and mask share the layout and differ in kstar and truth only.
    """

    layout: SamplingLayout
    kstar: np.ndarray
    truth: MotionTruth

    def __post_init__(self) -> None:
        layout = self.layout
        if len(self.kstar) != len(layout.t) or len(layout.cuts) != len(layout.instants) + 1:
            raise ValueError("kstar must parallel the layout rows, cut once per instant plus one")

    @property
    def sampling_period_s(self) -> int:
        return self.layout.sampling_period_s

    @property
    def snapshots(self) -> tuple:
        """One SensorSnapshot of (x, y, kstar) rows per instant, built anew on each call."""
        layout, cuts = self.layout, self.layout.cuts
        sensors = np.column_stack([layout.x, layout.y, self.kstar])
        return tuple(
            SensorSnapshot(t=t, sensors=sensors[a:b], vehicle_ids=layout.vehicle_ids[a:b])
            for t, a, b in zip(layout.instants, cuts, cuts[1:])
        )


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

    The dataset's sampling layout holds the records at sampling instants
    that are not on shadowed mask pixels; one pass looks the field up for
    all of them at once, and the series is that layout plus its k*.  The
    field translates with the truth velocity, so the value seen at world
    position p at time t sits at p - anchor - t*v in field coordinates; the
    containing pixel is the nearest-pixel lookup.  Lookups outside the
    raster mean the field was sized or anchored wrong: fail fast, naming the
    first such instant.
    """
    ds.check_duration(cfg.duration_s)
    anchor = cfg.field_anchor
    if anchor is None:
        anchor = default_field_anchor(field, ds.bounds, truth, cfg.duration_s)
    layout = ds.sampling_layout(cfg.duration_s, cfg.sampling_period_s, mask)
    t, x, y = layout.t, layout.x, layout.y
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
    return MeasurementSeries(layout, _KSTAR_F64[field.levels[iy, ix]], truth)


def is_valid_event(
    series: MeasurementSeries, bounds: Rect, min_variability_s: int = 60
) -> bool:
    """Did the central ninth of the area see enough irradiance variability?

    An instant qualifies when at least one sensor inside the central
    rectangle registers a change: its k* moved by more than 1e-6 since the
    same vehicle's sample one period earlier, or -- for vehicles without
    one -- differs by more than 1e-6 from the instant's modal central value.
    Qualifying instants need not be contiguous; the event is valid when they
    span more than min_variability_s, i.e. (count - 1) * period exceeds it;
    a negative min_variability_s raises ValueError.  The modal value's ties
    go to the larger (clearer) one.  Each row's same-vehicle row comes from
    the layout's previous_rows, built once for all bounds and series.
    """
    if min_variability_s < 0:
        raise ValueError(f"min_variability_s must be >= 0, got {min_variability_s}")
    layout, k, cuts = series.layout, series.kstar, series.layout.cuts
    if len(cuts) < 2:
        raise ValueError("empty measurement series")
    x, y = layout.x, layout.y
    c = bounds.central_ninth()
    rows = np.flatnonzero((c.x0 <= x) & (x < c.x1) & (c.y0 <= y) & (y < c.y1))
    snap_c, k_c = np.searchsorted(cuts, rows, side="right") - 1, k[rows]
    before = layout.previous_rows[rows]
    # the modal central k* per snapshot: runs of equal (snapshot, value) in
    # value order, stably sorted by count, so the last of a snapshot wins
    values, value_code = np.unique(k_c, return_inverse=True)
    n_values = max(len(values), 1)
    runs, run_n = np.unique(snap_c * n_values + value_code, return_counts=True)
    runs = runs[np.lexsort((run_n, runs // n_values))]
    run_s = runs // n_values
    top = np.ones(len(runs), dtype=bool)
    top[:-1] = run_s[1:] != run_s[:-1]
    mode = np.empty(len(cuts) - 1)
    mode[run_s[top]] = values[runs[top] % n_values]
    reference = np.where(before >= 0, k[before], mode[snap_c])
    qualifying = np.unique(snap_c[np.abs(k_c - reference) > 1e-6]).size
    return (qualifying - 1) * series.sampling_period_s > min_variability_s


def _kstar_text(kstar: np.ndarray) -> list:
    """The "%.6f" k* text that ends each exported row, newline included.

    The levels are evenly spaced, so the nearest level's index is level
    arithmetic, clamped to 0..255 (NaN and +-inf included) before the cast.
    Rows whose k* equals that level bit for bit take its table text; the
    others are formatted.
    """
    lo, hi = _KSTAR_F64[0], _KSTAR_F64[-1]
    i = np.rint((kstar - lo) * (255 / (hi - lo)))
    i = np.fmax(np.fmin(i, 255), 0).astype(np.intp)
    text = _KSTAR_TEXT[i]
    other = _KSTAR_F64[i].view(np.int64) != kstar.view(np.int64)
    if other.any():
        text[other] = ["%.6f\n" % k for k in kstar[other].tolist()]
    return text.tolist()


def export_series(series: MeasurementSeries, cfg: TransitConfig, path) -> None:
    """Interchange dump: one JSON header line, then t,x,y,kstar rows.

    The "t,x.xxx,y.yyy," start of each row is formatted once per sampling
    layout and kept on it.
    """
    header = {
        "truth": {"speed_mps": series.truth.speed, "direction_deg": series.truth.direction_deg},
        "duration_s": cfg.duration_s,
        "sampling_period_s": cfg.sampling_period_s,
        "seed": cfg.seed,
    }
    layout = series.layout
    if layout.row_text is None:
        t, x, y = (column.tolist() for column in (layout.t, layout.x, layout.y))
        layout.row_text = [f"{a},{b:.3f},{c:.3f}," for a, b, c in zip(t, x, y)]
    rows = layout.row_text
    parts = [None] * (2 * len(rows))
    parts[::2] = rows
    parts[1::2] = _kstar_text(series.kstar)
    head = "# " + json.dumps(header, sort_keys=True) + "\nt,x,y,kstar\n"
    Path(path).write_text(head + "".join(parts))
