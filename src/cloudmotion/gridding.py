"""Scattered sensor samples onto a fixed virtual grid by inverse distance.

Each grid point takes the inverse-distance-weighted mean of the k nearest
of a snapshot's (x, y, kstar) sensor rows (w = 1/d, summed nearest first);
a sensor sitting exactly on a grid point wins outright.  Snapshots with
fewer than k sensors are marked invalid instead of being interpolated from
a thinner neighborhood.

idw_interpolate is the exhaustive reference: every sensor's distance to
every grid point.  grid_series gives the same bits from fewer distances
(box-bound pruning, Friedman, Bentley & Finkel, ACM TOMS 1977, on tiles of
the lattice).  It splits the lattice into _TILE x _TILE point tiles and
bounds each sensor's squared distance to a tile's points from below by its
distance to the tile's nearest point (near) and from above by that to its
farthest (far), per axis.  With limit the k-th smallest far, k sensors lie
within limit of every point of the tile, so a point's k-th neighbour
distance is at most limit, and every sensor that beats or ties it has
near <= limit.  Only those candidates, kept in canonical order, enter the
k selection passes, and each pass takes the first candidate at the minimum
as argmin does.  The bounds are the same rounded per-axis terms summed,
and rounding is monotone, so they hold in floating point; limit gets a
1e-9 relative slack that can only admit more candidates.

Which rows are a grid point's k nearest depends on the sensor positions
only, so the selection is kept apart from its application to a k* column.
select_neighbours selects for every instant of a SamplingLayout, and
grid_selected grids any series of that layout from the selection;
grid_series is the two for one series.  The application recomputes d2
from the rows' x and y and weighs them in idw_interpolate's order, so it
gives idw_interpolate's bits.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .fleet import SamplingLayout, SensorSnapshot
from .geometry import Rect
from .transit import MeasurementSeries

# Grid points per tile side in select_neighbours; 6 timed fastest of 4, 6, 8, 10.
_TILE = 6


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned grid anchored at the lower-left corner of bounds.

    Points sit at bounds lower-left + (ix, iy) * dmin; the grid has
    floor(side/dmin) + 1 points per axis, so it never overruns bounds.
    """

    bounds: Rect
    dmin: float

    def __post_init__(self) -> None:
        if not 0 < self.dmin < math.inf:
            raise ValueError("dmin must be positive and finite")

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


@dataclass(frozen=True)
class GridSnapshot:
    """IDW-gridded counterpart of one SensorSnapshot; (ny, nx) values."""

    t: int
    values: np.ndarray
    valid: bool


@dataclass(frozen=True, eq=False)
class GridSeries:
    """The grids of every sampling instant of a series, as one block.

    values[i] is the (ny, nx) grid at instants[i]; the rows of invalid
    instants hold NaN.  len(), integer indexing and iteration give
    GridSnapshot views of the block.
    """

    instants: range
    values: np.ndarray  # (T, ny, nx), float64 as gridded
    valid: np.ndarray  # (T,) bool

    def __len__(self) -> int:
        return len(self.instants)

    def __getitem__(self, i: int) -> GridSnapshot:
        try:
            i = operator.index(i)
        except TypeError:
            raise TypeError(f"GridSeries takes integer indices, not {type(i).__name__}; "
                            "index .values or iterate") from None
        return GridSnapshot(t=self.instants[i], values=self.values[i], valid=bool(self.valid[i]))


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


@dataclass(frozen=True, eq=False)
class NeighbourSelection:
    """The k nearest sensors of every grid point, per sampling instant of a layout.

    rows[i] is None where instant i has fewer than k sensors.  Otherwise it
    is a (k, ny * nx) array, nearest first, of rows local to the instant
    (0 is the layout row cuts[i]) in the smallest unsigned dtype that holds
    them.  Which rows these are does not depend on k*, so every series of
    the layout grids from one selection; no weight is stored.
    """

    layout: SamplingLayout
    spec: GridSpec
    rows: tuple


def select_neighbours(layout: SamplingLayout, spec: GridSpec, k_neighbors: int = 3) -> NeighbourSelection:
    """The k nearest rows of every grid point, for every instant of layout, by tiles."""
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    ny, nx = spec.ny, spec.nx
    nty, ntx = -(-ny // _TILE), -(-nx // _TILE)
    # The lattice padded past the bounds to whole tiles, by the same
    # origin + index * dmin expression as GridSpec.axes.
    ys = spec.bounds.y0 + np.arange(nty * _TILE) * spec.dmin
    xs = spec.bounds.x0 + np.arange(ntx * _TILE) * spec.dmin
    # Points run (row in tile, column in tile, tile).  Per (row or column
    # in tile, tile): its lattice row or column; per point: its tile.
    tile_y, tile_x = np.divmod(np.arange(nty * ntx), ntx)
    offsets = np.arange(_TILE)[:, None]
    point_tile = np.tile(np.arange(nty * ntx), _TILE * _TILE)
    tiles = (ys, xs, tile_y * _TILE + offsets, tile_x * _TILE + offsets, point_tile, (ny, nx))
    x, y, cuts = layout.x, layout.y, layout.cuts
    rows = tuple(_select(x[a:b], y[a:b], tiles, k_neighbors) if b - a >= k_neighbors else None
                 for a, b in zip(cuts, cuts[1:]))
    return NeighbourSelection(layout, spec, rows)


def grid_selected(selection: NeighbourSelection, series: MeasurementSeries) -> GridSeries:
    """The GridSeries of a series of selection.layout, from that selection.

    The same operations in the same order as idw_interpolate: d2 as row
    term + column term, w = 1/sqrt(d2) summed slot by slot, vsum / wsum,
    and a sensor on a grid point (slot 0 at d2 == 0) taking its value.
    """
    if series.layout is not selection.layout:
        raise ValueError("the series does not share the selection's sampling layout")
    layout, z, spec = series.layout, series.kstar, selection.spec
    ny, nx = spec.ny, spec.nx
    xs, ys = spec.axes()
    row_of, col_of = np.divmod(np.arange(ny * nx), nx)
    gy, gx = ys[row_of], xs[col_of]  # each grid point's coordinates
    block = np.empty((len(layout.instants), ny, nx))
    valid = np.zeros(len(block), dtype=bool)
    for i, rows in enumerate(selection.rows):
        if rows is None:
            block[i] = np.nan
            continue
        valid[i] = True
        rows = np.add(rows, layout.cuts[i], dtype=np.intp)  # (slot, point): layout rows
        ry = np.subtract(gy, layout.y[rows])
        d2 = np.square(ry, out=ry)
        cx = np.subtract(gx, layout.x[rows])
        d2 += np.square(cx, out=cx)
        zk = z[rows]
        values = block[i].reshape(-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.divide(1.0, np.sqrt(d2, out=cx), out=cx)
            wz = np.multiply(w, zk, out=zk)
            wsum, vsum = np.zeros(ny * nx), np.zeros(ny * nx)
            for slot in range(len(rows)):  # nearest first
                wsum += w[slot]
                vsum += wz[slot]
            np.divide(vsum, wsum, out=values)
        coincident = d2[0] == 0.0
        values[coincident] = z[rows[0][coincident]]
    return GridSeries(layout.instants, block, valid)


def grid_series(series: MeasurementSeries, spec: GridSpec, k_neighbors: int = 3) -> GridSeries:
    """The grids of every sampling instant, invalid ones kept in place as NaN.

    One selection for the series' layout, applied to its k* column: bit for
    bit what idw_interpolate gives per snapshot.
    """
    return grid_selected(select_neighbours(series.layout, spec, k_neighbors), series)


def _select(x: np.ndarray, y: np.ndarray, tiles: tuple, k: int) -> np.ndarray:
    """One instant's (k, grid points) rows of NeighbourSelection, by tiles."""
    ys, xs, tile_row, tile_col, point_tile, (ny, nx) = tiles
    n_tiles = tile_row.shape[1]
    order = np.lexsort((y, x))  # canonical, as idw_interpolate
    n = len(order)
    # Per-axis squared offsets, (lattice rows or columns, sensors + 1); the
    # last sensor is a sentinel at infinity that pads candidate lists.
    ry = (ys[:, None] - np.append(y[order], np.inf)) ** 2
    cx = (xs[:, None] - np.append(x[order], np.inf)) ** 2

    # Squared distance from each tile to each sensor: from its nearest and
    # from its farthest point.  k sensors lie within limit of every point of
    # the tile, so a sensor farther than limit from all of them cannot be
    # among any point's k nearest, tied or not.
    ry_t = ry.reshape(-1, _TILE, n + 1)[:, :, :n]
    cx_t = cx.reshape(-1, _TILE, n + 1)[:, :, :n]
    near = (ry_t.min(1)[:, None] + cx_t.min(1)[None, :]).reshape(n_tiles, n)
    far = (ry_t.max(1)[:, None] + cx_t.max(1)[None, :]).reshape(n_tiles, n)
    limit = np.partition(far, k - 1, axis=1)[:, k - 1:k] * (1.0 + 1e-9)
    keep = near <= limit
    tile, sensor = np.nonzero(keep)  # by tile, then canonical index
    counts = keep.sum(axis=1)
    n_cand = counts.max()
    cand = np.full((n_cand, n_tiles), n)  # (candidate, tile), sentinel last
    cand[np.arange(len(tile)) - (np.cumsum(counts) - counts)[tile], tile] = sensor

    # d2 as (candidate, point) by the same row-term + column-term sum as
    # idw_interpolate; points run (row in tile, column in tile, tile).
    d2 = np.empty((n_cand, _TILE, _TILE, n_tiles))
    np.add(ry.ravel()[tile_row * (n + 1) + cand[:, None, :]][:, :, None, :],
           cx.ravel()[tile_col * (n + 1) + cand[:, None, :]][:, None, :, :], out=d2)
    d2 = d2.reshape(n_cand, -1)
    n_points = d2.shape[1]
    points = np.arange(n_points)

    # k passes; each takes the first candidate at the minimum, the lowest
    # canonical index, as argmin does in idw_interpolate: that candidate's
    # row is n_cand - max((d2 == min) * (n_cand - row)).  Each chosen entry
    # is then masked with inf.
    weight = np.arange(n_cand, 0, -1, dtype=np.min_scalar_type(n_cand))[:, None]
    chosen = np.empty((k, n_points), dtype=np.intp)
    for slot in range(k):
        dj = d2.min(axis=0)
        chosen[slot] = n_cand - ((d2 == dj) * weight).max(axis=0)
        d2.reshape(-1)[chosen[slot] * n_points + points] = np.inf
    # each chosen candidate's row in the instant, then the points of the
    # lattice in (row, column) order
    local = np.append(order, 0)[cand].astype(np.min_scalar_type(n - 1)).ravel()
    chosen *= n_tiles
    chosen += point_tile
    rows = local[chosen].reshape(k, _TILE, _TILE, len(ys) // _TILE, len(xs) // _TILE)
    rows = rows.transpose(0, 3, 1, 4, 2).reshape(k, len(ys), len(xs))[:, :ny, :nx]
    return rows.reshape(k, ny * nx)

