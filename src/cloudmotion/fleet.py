"""Vehicle fleets as mobile sensor networks.

Trajectories arrive as per-second (vehicle, position) records; penetration
subsampling keeps a seeded random subset of whole vehicles; a building
shadow mask removes vehicles standing on shadowed ground before they are
used as irradiance sensors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import Rect
from .rasters import read_pgm, sidecar_path


class TrajectoryParseError(ValueError):
    """Trajectory file violates the t,vehicle_id,x,y contract."""


class EmptyDatasetError(ValueError):
    """No records survived parsing and filtering."""


class MaskCoverageError(ValueError):
    """A queried position lies outside the shadow mask raster."""


@dataclass(frozen=True)
class SensorSnapshot:
    """Scattered clear-sky-index samples at one instant.

    sensors is an (n, 3) float64 array of (x, y, kstar) rows; vehicle_ids is
    the parallel (n,) array of vehicle identifiers, or empty when unknown,
    kept so per-vehicle time differencing is possible downstream (the CSV
    interchange format carries positions only).  Array-likes given for
    either are converted on construction.
    """

    t: int
    sensors: np.ndarray
    vehicle_ids: np.ndarray = ()

    def __post_init__(self) -> None:
        sensors = np.asarray(self.sensors, dtype=np.float64).reshape(len(self.sensors), 3)
        ids = np.asarray(self.vehicle_ids, dtype=str)
        if ids.size and ids.shape != (len(sensors),):
            raise ValueError("vehicle_ids must parallel sensors")
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "vehicle_ids", ids)


def trajectory_table(vehicle_id, t, x, y) -> np.ndarray:
    """The record format: a structured array of vehicle_id, t, x, y columns."""
    ids = np.asarray(vehicle_id, dtype=str)
    dtype = [("vehicle_id", ids.dtype), ("t", "i8"), ("x", "f8"), ("y", "f8")]
    table = np.empty(len(ids), dtype=dtype)
    table["vehicle_id"], table["t"], table["x"], table["y"] = ids, t, x, y
    return table


@dataclass(eq=False)
class SamplingLayout:
    """The records a transit samples, which do not depend on the truth draw.

    t, x, y and vehicle_ids are parallel columns of the records at sampling
    instants and off shadowed mask pixels, sorted by (t, vehicle_id); rows
    cuts[i]:cuts[i + 1] belong to the i-th sampling instant.  A
    transit.MeasurementSeries adds one k* column parallel to the rows.
    row_text and neighbour_rows are the memos of transit.export_series and
    gridding.grid_series; previous_rows is built on first use and kept, so
    every series of the layout shares them.
    """

    duration_s: int
    sampling_period_s: int
    mask: Optional[ShadowMask]
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vehicle_ids: np.ndarray
    cuts: list
    row_text: Optional[list] = field(default=None, repr=False)
    neighbour_rows: dict = field(default_factory=dict, repr=False)
    _previous: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def previous_rows(self) -> np.ndarray:
        """Each row's same-vehicle row one instant earlier, or -1 where there is none.

        Rows are matched by (instant, vehicle code) key, a code being an
        id's rank among the layout's ids; the argsort is stable because a
        hand-built layout need not be sorted by id, and of repeated ids in
        one instant the first row is taken.
        """
        if self._previous is None:
            codes = np.unique(self.vehicle_ids, return_inverse=True)[1]
            snap = np.repeat(np.arange(len(self.cuts) - 1), np.diff(self.cuts))
            n_codes = int(codes.max(initial=0)) + 1
            key = snap * n_codes + codes
            order = np.argsort(key, kind="stable")
            wanted = key - n_codes
            at = np.minimum(np.searchsorted(key[order], wanted), max(len(key) - 1, 0))
            before = order[at]
            self._previous = np.where(key[before] == wanted, before, -1)
        return self._previous

    @property
    def instants(self) -> range:
        """The sampling instants t = 0, period, ..., duration_s."""
        return range(0, self.duration_s + 1, self.sampling_period_s)


@dataclass(frozen=True, eq=False)
class TrajectoryDataset:
    """Per-second vehicle positions over an observation window.

    table is a trajectory_table with t in seconds from window start and at
    most one record per (vehicle_id, t); construction sorts it by
    (t, vehicle_id) and makes it read-only, so the dataset is safe to share
    across parallel simulations.
    """

    table: np.ndarray
    window: tuple
    bounds: Rect
    # the last sampling layout built; pickles and copies start without it
    _layout: Optional[SamplingLayout] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        length = self.window[1] - self.window[0]
        t = self.table["t"]
        outside = (t < 0) | (t > length)
        if outside.any():
            raise ValueError(f"record t={t[outside][0]} outside window of length {length}")
        table = self.table[np.lexsort((self.table["vehicle_id"], t))]
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_layout", None)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_layout": None}

    @property
    def duration_s(self) -> int:
        return self.window[1] - self.window[0]

    def check_duration(self, duration_s: int) -> None:
        """Raise ValueError unless the records span a transit of duration_s."""
        if self.duration_s < duration_s:
            raise ValueError(
                f"dataset covers {self.duration_s} s but the transit needs {duration_s} s"
            )

    def records_at(self, t: int) -> np.ndarray:
        """Records at t, id-sorted: a structured array of vehicle_id, t, x, y."""
        times = self.table["t"]
        return self.table[times.searchsorted(t, "left") : times.searchsorted(t, "right")]

    def sampling_layout(
        self, duration_s: int, sampling_period_s: int, mask: Optional[ShadowMask]
    ) -> SamplingLayout:
        """The records at t = 0, period, ..., duration_s that stand on lit ground.

        The layout of the last (duration_s, sampling_period_s, mask object)
        asked for is kept and returned again while those stay the same; the
        table, the mask raster and the layout's columns are read-only, so
        neither it nor its memos can go stale.  A record off the mask raster
        raises MaskCoverageError, and nothing is kept.
        """
        memo = self._layout
        if (
            memo is not None
            and memo.mask is mask
            and (memo.duration_s, memo.sampling_period_s) == (duration_s, sampling_period_s)
        ):
            return memo
        recs = self.table
        recs = recs[(recs["t"] <= duration_s) & (recs["t"] % sampling_period_s == 0)]
        if mask is not None:
            recs = recs[~mask.is_shadowed(recs["x"], recs["y"])]
        t, x, y, ids = (np.ascontiguousarray(recs[c]) for c in ("t", "x", "y", "vehicle_id"))
        for column in (t, x, y, ids):
            column.flags.writeable = False
        # every t is a sampling instant, and t is sorted
        cuts = np.searchsorted(t, range(0, duration_s + 1, sampling_period_s)).tolist()
        layout = SamplingLayout(
            duration_s, sampling_period_s, mask, t=t, x=x, y=y, vehicle_ids=ids,
            cuts=cuts + [len(t)],
        )
        object.__setattr__(self, "_layout", layout)
        return layout


@dataclass(frozen=True)
class ShadowMask:
    """Boolean ground-shadow raster; True marks building-shadowed pixels.

    Pixel (iy, ix) covers [x0+ix*s, x0+(ix+1)*s) x [y0+iy*s, y0+(iy+1)*s);
    a point exactly on a pixel edge belongs to the higher-index pixel.
    """

    mask: np.ndarray
    origin: tuple
    pixel_size_m: float

    def __post_init__(self) -> None:
        # a read-only copy: a dataset's sampling layout is keyed on the mask object
        mask = np.array(self.mask)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    def is_shadowed(self, x, y) -> np.ndarray:
        """Shadow flag of the pixel under each point.

        x and y are scalars or arrays of one shape, and so is the result.
        Any point off the raster raises MaskCoverageError.
        """
        x, y = (np.asarray(v, dtype=np.float64) for v in (x, y))
        ix = np.floor((x - self.origin[0]) / self.pixel_size_m).astype(np.int64)
        iy = np.floor((y - self.origin[1]) / self.pixel_size_m).astype(np.int64)
        ny, nx = self.mask.shape
        off = (ix < 0) | (ix >= nx) | (iy < 0) | (iy >= ny)
        if off.any():
            raise MaskCoverageError(
                f"position ({x[off][0]:.1f}, {y[off][0]:.1f}) outside mask raster"
            )
        return self.mask[iy, ix]

    def check_covers(self, bounds: Rect) -> None:
        """Raise ValueError unless the raster covers all of bounds."""
        ny, nx = self.mask.shape
        if not (
            self.origin[0] <= bounds.x0
            and self.origin[1] <= bounds.y0
            and self.origin[0] + nx * self.pixel_size_m >= bounds.x1
            and self.origin[1] + ny * self.pixel_size_m >= bounds.y1
        ):
            raise ValueError("shadow mask does not cover the observation bounds")


def load_trajectories(path, bounds: Rect, window: Optional[tuple] = None) -> TrajectoryDataset:
    """Parse a t,vehicle_id,x,y CSV into a dataset filtered to bounds/window.

    Record times are rebased to seconds from window start.  When window is
    None it spans the min..max time of the in-bounds records.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != "t,vehicle_id,x,y":
        raise TrajectoryParseError(f"{path}: expected header 't,vehicle_id,x,y'")

    cols = ([], [], [], [])
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise TrajectoryParseError(f"{path}: line {lineno}: expected 4 fields")
        try:
            t, vid, x, y = int(parts[0]), parts[1].strip(), float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise TrajectoryParseError(f"{path}: line {lineno}: {exc}") from None
        if not vid:
            raise TrajectoryParseError(f"{path}: line {lineno}: empty vehicle_id")
        if abs(t) >= 2**62:  # keeps t and t - window start inside int64
            raise TrajectoryParseError(f"{path}: line {lineno}: time {t} out of range")
        for col, value in zip(cols, (vid, t, x, y)):
            col.append(value)
    table = trajectory_table(*cols)
    table = table[bounds.contains(table["x"], table["y"])]

    if window is None:
        if not len(table):
            raise EmptyDatasetError(f"{path}: no records inside bounds")
        window = (int(table["t"].min()), int(table["t"].max()))

    t_start, t_end = window
    table = table[(t_start <= table["t"]) & (table["t"] <= t_end)]
    if not len(table):
        raise EmptyDatasetError(f"{path}: no records inside bounds and window")
    # duplicates sit next to each other in (vehicle_id, t) order; a stable
    # sort keeps file order within them, so the first repeat in the file is named
    order = np.lexsort((table["t"], table["vehicle_id"]))
    ids, ts = table["vehicle_id"][order], table["t"][order]
    repeats = order[1:][(ids[1:] == ids[:-1]) & (ts[1:] == ts[:-1])]
    if len(repeats):
        first = table[repeats.min()]
        key = (str(first["vehicle_id"]), int(first["t"]))
        raise TrajectoryParseError(f"{path}: duplicate record for {key}")
    table["t"] -= t_start
    return TrajectoryDataset(table, window, bounds)


def subsample_by_penetration(ds: TrajectoryDataset, pr: float, seed: int) -> TrajectoryDataset:
    """Keep a seeded random share of whole vehicles.

    round(pr * n_ids) identifiers are taken as a prefix of one seeded
    shuffle of the sorted id list, so subsets are nested across rates:
    the 40 % fleet is contained in the 50 % fleet for the same seed.
    """
    if not 0.0 < pr <= 1.0:
        raise ValueError(f"penetration rate must be in (0, 1], got {pr}")
    if pr == 1.0:
        return ds
    ids = np.unique(ds.table["vehicle_id"])
    k = int(np.floor(pr * len(ids) + 0.5))
    order = np.random.default_rng(seed).permutation(len(ids))
    keep = np.isin(ds.table["vehicle_id"], ids[order[:k]])
    return TrajectoryDataset(ds.table[keep], ds.window, ds.bounds)


def load_shadow_mask(pgm_path) -> ShadowMask:
    """Read a shadow mask: PGM levels < 128 are shadowed, >= 128 lit.

    The sidecar (the .txt next to the PGM) holds one line
    'origin_x origin_y pixel_size'.
    """
    levels = read_pgm(pgm_path)
    sidecar = sidecar_path(pgm_path)
    parts = sidecar.read_text().split()
    if len(parts) != 3:
        raise ValueError(f"{sidecar}: expected 'origin_x origin_y pixel_size'")
    x0, y0, pix = (float(p) for p in parts)
    if not np.isfinite([x0, y0]).all():
        raise ValueError(f"{sidecar}: origin must be finite, got ({x0}, {y0})")
    if not 0 < pix < np.inf:
        raise ValueError(f"{sidecar}: pixel size must be positive and finite, got {pix}")
    return ShadowMask(mask=levels < 128, origin=(x0, y0), pixel_size_m=pix)
