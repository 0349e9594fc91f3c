"""Scattered sensor samples onto a fixed virtual grid by inverse distance.

Each grid point takes the inverse-distance-weighted mean of the k nearest
of a snapshot's (x, y, kstar) sensor rows (w = 1/d, summed nearest first);
a sensor sitting exactly on a grid point wins outright.  Snapshots with
fewer than k sensors are marked invalid instead of being interpolated from
a thinner neighborhood.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fleet import SensorSnapshot
from .geometry import Rect
from .transit import MeasurementSeries

@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned grid anchored at the lower-left corner of bounds.

    Points sit at bounds lower-left + (ix, iy) * dmin; the grid has
    floor(side/dmin) + 1 points per axis, so it never overruns bounds.
    """

    bounds: Rect
    dmin: float

    def __post_init__(self) -> None:
        if self.dmin <= 0:
            raise ValueError("dmin must be positive")

    @property
    def nx(self) -> int:
        return int(math.floor(self.bounds.width / self.dmin + 1e-9)) + 1

    @property
    def ny(self) -> int:
        return int(math.floor(self.bounds.height / self.dmin + 1e-9)) + 1

    def axes(self) -> tuple:
        """Grid coordinates along each axis, (xs of length nx, ys of length ny)."""
        xs = self.bounds.x0 + np.arange(self.nx) * self.dmin
        ys = self.bounds.y0 + np.arange(self.ny) * self.dmin
        return xs, ys

    def points(self) -> tuple:
        """Flattened grid coordinates (gx, gy), row-major over (iy, ix)."""
        gx, gy = np.meshgrid(*self.axes())
        return gx.ravel(), gy.ravel()


@dataclass(frozen=True)
class GridSnapshot:
    """IDW-gridded counterpart of one SensorSnapshot; (ny, nx) values."""

    t: int
    values: np.ndarray
    valid: bool


def idw_interpolate(snapshot: SensorSnapshot, spec: GridSpec, k_neighbors: int = 3) -> GridSnapshot:
    """Interpolate one snapshot onto the grid.

    Neighbor selection is exact; distance ties at the k-th slot are broken
    by sensor (x, y) and then input order, so the result does not depend on
    how the sensor rows happened to be ordered.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    n_sensors = len(snapshot.sensors)
    ny, nx = spec.ny, spec.nx
    if n_sensors < k_neighbors:
        return GridSnapshot(t=snapshot.t, values=np.full((ny, nx), np.nan), valid=False)

    arr = snapshot.sensors
    order = np.lexsort((arr[:, 1], arr[:, 0]))  # canonical: by x, then y
    sx, sy, sz = arr[order, 0], arr[order, 1], arr[order, 2]

    # The grid is a lattice, so squared distances separate into a row term
    # and a column term: one full-size add builds the (ny, nx, n) array.
    xs, ys = spec.axes()
    d2 = ((ys[:, None] - sy) ** 2)[:, None, :] + ((xs[:, None] - sx) ** 2)[None, :, :]
    d2 = d2.reshape(ny * nx, n_sensors)

    # k argmin passes: argmin keeps the first index on ties, so slots fill
    # in ascending (d2, canonical index) order and a sensor on a grid point
    # lands in slot 0.  Each chosen entry is then masked with inf.
    rows = np.arange(d2.shape[0])
    wsum = np.zeros(d2.shape[0])
    vsum = np.zeros(d2.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for slot in range(k_neighbors):
            j = d2.argmin(axis=1)
            dj = d2[rows, j]
            if slot == 0:
                nearest, coincident = j, dj == 0.0
            w = 1.0 / np.sqrt(dj)
            wsum += w
            vsum += w * sz[j]
            d2[rows, j] = np.inf
        values = vsum / wsum
    values[coincident] = sz[nearest[coincident]]
    return GridSnapshot(t=snapshot.t, values=values.reshape(ny, nx), valid=True)


def grid_series(series: MeasurementSeries, spec: GridSpec, k_neighbors: int = 3) -> list:
    """One GridSnapshot per snapshot, invalid ones kept in place."""
    return [idw_interpolate(s, spec, k_neighbors) for s in series.snapshots]
