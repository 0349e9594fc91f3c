"""Fractal cloud-shadow fields and their clear-sky-index representation.

Pipeline: a midpoint-displacement (diamond-square) fractal surface is
thresholded at its median into cloudy/clear regions with a linear
transition band into a cloud index n in [-0.2, 1.2], mapped through an
empirical piecewise relation to clear-sky indices k* in [0.09, 1.2] and
stored as 8-bit levels.

The field is built in one (n+1)^2 float32 grid plus the recursion's
scratch, which then holds the uint8 levels: the recursion works in place,
the median needs no copy, and the steps after it run on blocks of
_BLOCK_ROWS rows, in float only inside the transition band.  Measured with
numpy 2.4: at 1024 px the tracemalloc peak is 1.6x a float32 raster's
bytes (2.5x with every pixel in float, 10.8x with full-raster steps); a
4096 px field peaks at 123.5 MB RSS in a fresh process (122 MB with a new
level raster; 138, 224 and 727 MB before).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KSTAR_MIN = 0.09
KSTAR_MAX = 1.2
CLOUD_INDEX_MIN = -0.2
CLOUD_INDEX_MAX = 1.2

# Rows per block of the median's passes and the level map after it.  At
# 4096 px the map took 0.10 s with 64 or 128 rows and 0.11-0.12 s with 256
# (0.50-0.55 s with every pixel in float), the median 0.10-0.13, 0.10 and
# 0.11 s for those sizes (np.median 0.14 s); 2-core Xeon, numpy 2.4.
_BLOCK_ROWS = 128

# Quadratic branch coefficients of the cloud-index -> clear-sky-index map.
_QUAD_C0 = 1.1661
_QUAD_C1 = -1.7814
_QUAD_C2 = 0.7250


class FieldSizeError(ValueError):
    """Requested raster side is not admissible for the generator."""


class DegenerateSurfaceError(ValueError):
    """Surface has no spread, so a median threshold cannot separate it."""


@dataclass(frozen=True)
class ClearSkyField:
    """Clear-sky-index raster as uint8 levels (kstar_to_levels) with world-space pixel size."""

    levels: np.ndarray
    pixel_size_m: float

    @property
    def side_px(self) -> int:
        return self.levels.shape[0]

    @property
    def extent_m(self) -> float:
        return self.side_px * self.pixel_size_m


def _admissible_grid_exponent(side_px: int) -> int:
    """k such that side_px is 2**k or 2**k + 1, or raise."""
    for n in (side_px, side_px - 1):
        if n >= 2 and n & (n - 1) == 0:
            return n.bit_length() - 1
    raise FieldSizeError(
        f"side_px must be 2**k or 2**k + 1 with k >= 1, got {side_px}"
    )


def _edge_means(out, corners, diam) -> None:
    """out[i, j] = mean of corners[i, j], corners[i + 1, j] and whichever of
    diam[i, j - 1], diam[i, j] exist, summed in that order (4 or 3 terms)."""
    np.add(corners[:-1], corners[1:], out=out)
    out[:, 1:] += diam
    out[:, :-1] += diam
    out[:, 1:-1] /= 4
    out[:, [0, -1]] /= 3


def generate_fractal(side_px: int, fractal_dimension: float, seed: int) -> np.ndarray:
    """Generate a square fractal surface by diamond-square recursion.

    Returns dimensionless float32 values, side_px x side_px.  The surface
    is built on a (2**k + 1) grid; a power-of-two side gets a view of its
    first side_px rows and columns.  Roughness is set by the fractal
    dimension D in (1, 2): Gaussian displacements shrink by 2**-(3 - D)
    per subdivision level.  Output is reproducible bit for bit for a fixed
    (side_px, fractal_dimension, seed).
    """
    return _diamond_square(side_px, fractal_dimension, seed)[0]


def _diamond_square(side_px: int, fractal_dimension: float, seed: int) -> tuple:
    """generate_fractal's surface and the float32 scratch of its recursion,
    which holds at least side_px**2 bytes."""
    k = _admissible_grid_exponent(side_px)
    if not 1.0 < fractal_dimension < 2.0:
        raise ValueError(f"fractal_dimension must be in (1, 2), got {fractal_dimension}")

    n = 1 << k
    hurst = 3.0 - fractal_dimension
    decay = np.float32(2.0 ** (-hurst))
    rng = np.random.default_rng(seed)

    grid = np.zeros((n + 1, n + 1), dtype=np.float32)
    grid[::n, ::n] = rng.standard_normal((2, 2), dtype=np.float32)
    # Scratch for the largest step, (n/2) x (n/2 + 1): means are summed here
    # (numpy copies inputs that may overlap a view of the same grid as
    # output), stored, and the buffer then takes the displacements.  One
    # float more makes its n^2 + 2n + 4 bytes hold (n + 1)^2 uint8 levels.
    buf = np.empty((n // 2) * (n // 2 + 1) + 1, dtype=np.float32)

    def set_displaced(cells, mean):
        cells[...] = mean
        rng.standard_normal(dtype=np.float32, out=mean)
        mean *= amp
        cells += mean

    amp = np.float32(1.0)
    step = n
    while step > 1:
        half = step // 2
        amp *= decay

        # Diamond: square centers get the 4-corner mean plus displacement.
        centers = grid[half:n:step, half:n:step]
        mean = buf[: centers.size].reshape(centers.shape)
        np.add(grid[0:n:step, 0:n:step], grid[0:n:step, step : n + 1 : step], out=mean)
        mean += grid[step : n + 1 : step, 0:n:step]
        mean += grid[step : n + 1 : step, step : n + 1 : step]
        mean *= np.float32(0.25)
        set_displaced(centers, mean)

        # Square: edge midpoints average their 3 or 4 axial neighbors at
        # distance `half` -- corner-lattice points up/down (or left/right)
        # and the fresh diamond centers on the other axis.
        corners = grid[0 : n + 1 : step, 0 : n + 1 : step]  # (m+1, m+1)
        diam = grid[half : n + 1 : step, half : n + 1 : step]  # (m, m)
        lat_a = grid[half : n + 1 : step, 0 : n + 1 : step]  # (m, m+1)
        mean = buf[: lat_a.size].reshape(lat_a.shape)
        _edge_means(mean, corners, diam)
        set_displaced(lat_a, mean)
        lat_b = grid[0 : n + 1 : step, half : n + 1 : step]  # (m+1, m)
        mean = buf[: lat_b.size].reshape(lat_b.shape)
        _edge_means(mean.T, corners.T, diam.T)
        set_displaced(lat_b, mean)

        step = half

    return grid[:side_px, :side_px], buf


def _map_rows(src: np.ndarray, fn, out: np.ndarray) -> np.ndarray:
    """fn applied block of rows by block of rows, written into out and returned.

    Bit-identical to fn(src) for any elementwise fn, with float64
    temporaries the size of one block instead of the whole raster.
    """
    for r0 in range(0, src.shape[0], _BLOCK_ROWS):
        out[r0 : r0 + _BLOCK_ROWS] = fn(src[r0 : r0 + _BLOCK_ROWS])
    return out


def _median(v: np.ndarray):
    """np.median(v) of a 2-D float32 array with contiguous rows, without a copy.

    A histogram of the high 16 bits (sign, exponent, 7 mantissa bits; a
    uint16 view), over blocks of rows, finds the bins of ranks (N-1)//2
    and N//2; only those are gathered and sorted.  Bins are in value order
    with negative bit patterns reversed (-0.0 and +0.0 are adjacent), and
    np.mean averages the pair, as in np.median.
    """
    blocks = [v[r0 : r0 + _BLOCK_ROWS] for r0 in range(0, v.shape[0], _BLOCK_ROWS)]
    high = [b.view(np.uint16)[..., int(np.little_endian) :: 2] for b in blocks]
    counts = sum(np.bincount(h.ravel(), minlength=1 << 16) for h in high)
    order = np.r_[np.arange(0xFFFF, 0x7FFF, -1), np.arange(0x8000)]
    cum = np.cumsum(counts[order])
    ranks = ((v.size - 1) // 2, v.size // 2)
    pos = np.searchsorted(cum, ranks, side="right")
    k0, k1 = order[pos].astype(np.uint16)
    picked = [b[h == k0] if k0 == k1 else b[(h == k0) | (h == k1)] for b, h in zip(blocks, high)]
    before = cum[pos[0]] - counts[k0]
    return np.sort(np.concatenate(picked))[ranks[0] - before : ranks[1] - before + 1].mean()


def _median_threshold(v: np.ndarray, transition_halfwidth: float):
    """Validated median of the surface values, the one global step of the pipeline."""
    if not 0 < transition_halfwidth < np.inf:
        raise ValueError("transition_halfwidth must be positive and finite")
    if v.min() == v.max():
        raise DegenerateSurfaceError("all surface values equal; median separates nothing")
    return _median(v)


def _cloud_index_rows(v: np.ndarray, t, transition_halfwidth: float) -> np.ndarray:
    """Cloud index of surface values v: -0.2 (clear) at or below t - halfwidth,
    1.2 (cloudy) at or above t + halfwidth, linear between, so t maps to 0.5."""
    lo = np.float32(CLOUD_INDEX_MIN)
    hi = np.float32(CLOUD_INDEX_MAX)
    frac = np.clip((v - (t - transition_halfwidth)) / (2.0 * transition_halfwidth), 0.0, 1.0)
    n = np.clip(frac * (hi - lo) + lo, lo, hi).astype(np.float32)
    # saturate the band edges exactly; float32 rounding must not leave the
    # fully clear/cloudy plateaus a hair inside the endpoints
    n[v <= t - transition_halfwidth] = lo
    n[v >= t + transition_halfwidth] = hi
    return n


def cloud_to_clearsky(n):
    """Map cloud index n to clear-sky index k* (empirical piecewise relation).

    k* = 1.2 for n <= -0.2; 1 - n on (-0.2, 0.8]; a quadratic on
    (0.8, 1.05]; 0.09 beyond.  Total on finite reals, non-increasing per
    branch, with a documented ~5e-3 jump between the linear and quadratic
    branches at n = 0.8.  Accepts scalars or arrays.
    """
    arr = np.asarray(n, dtype=np.float64)
    out = np.select(
        [arr <= -0.2, arr <= 0.8, arr <= 1.05],
        [KSTAR_MAX, 1.0 - arr, _QUAD_C0 + _QUAD_C1 * arr + _QUAD_C2 * arr * arr],
        default=KSTAR_MIN,
    )
    if np.isscalar(n) or np.ndim(n) == 0:
        return float(out)
    return out


def kstar_to_levels(kstar: np.ndarray) -> np.ndarray:
    """Linear 8-bit levels over the full k* range; 0 = 0.09, 255 = 1.2."""
    span = KSTAR_MAX - KSTAR_MIN
    levels = np.rint((np.asarray(kstar, dtype=np.float64) - KSTAR_MIN) / span * 255.0)
    return np.clip(levels, 0, 255).astype(np.uint8)


def levels_to_kstar(levels: np.ndarray) -> np.ndarray:
    span = KSTAR_MAX - KSTAR_MIN
    return (KSTAR_MIN + levels.astype(np.float64) / 255.0 * span).astype(np.float32)


# k* of every 8-bit level; indexing it with uint8 levels equals
# levels_to_kstar(levels) bit for bit, since that map is elementwise.
_LEVEL_KSTAR = levels_to_kstar(np.arange(256, dtype=np.uint8))


def required_field_side(sim_duration_s: float, v_max: float, obs_diag_m: float) -> float:
    """Minimum field extent (meters) so a transit never samples off-field.

    The shadow sweeps sim_duration_s * v_max meters and the observation area
    spans obs_diag_m diagonally; the field must cover their sum.  Callers
    round up to an admissible power-of-two side (in pixels) times pixel size.
    """
    if sim_duration_s < 0 or v_max < 0 or obs_diag_m < 0:
        raise ValueError("durations, speeds and extents must be non-negative")
    return sim_duration_s * v_max + obs_diag_m


def auto_pixel_size(side_px: int, required_extent_m: float) -> float:
    """Smallest integer pixel size (m) covering required_extent_m with side_px pixels."""
    return float(max(1, math.ceil(required_extent_m / side_px)))


def make_clearsky_field(
    side_px: int,
    fractal_dimension: float = 1.5,
    seed: int = 0,
    transition_halfwidth: float = 0.15,
    pixel_size_m: float = 1.0,
) -> ClearSkyField:
    """Full generation pipeline: fractal -> cloud index -> float32 k* -> levels.

    Every step after the median runs on one block of rows at a time, so no
    cloud-index, k* or float64 full raster is built.  Only pixels inside the
    band (and NaNs) run the float steps; the rest take the plateau levels,
    found at -inf and +inf since float32 may round both band edges to t.
    """
    if not 0 < pixel_size_m < np.inf:
        raise ValueError("pixel_size_m must be positive and finite")
    surf, scratch = _diamond_square(side_px, fractal_dimension, seed)
    t = _median_threshold(surf, transition_halfwidth)

    def rows(v):
        n = _cloud_index_rows(v, t, transition_halfwidth)
        return kstar_to_levels(cloud_to_clearsky(n).astype(np.float32))

    clear, cloudy = rows(np.array([-np.inf, np.inf], dtype=surf.dtype))

    def band_rows(v):
        above = v >= t + transition_halfwidth
        inside = ~(above | (v <= t - transition_halfwidth))
        out = np.where(above, cloudy, clear)
        out[inside] = rows(v[inside])
        return out

    # the levels take the recursion's scratch, not a new raster allocated as
    # the scratch is freed: with a new one, the peak RSS of three 4096 px
    # builds in one process read about 129 or 145 MB, by heap layout
    levels = scratch.view(np.uint8)[: side_px * side_px].reshape(side_px, side_px)
    return ClearSkyField(levels=_map_rows(surf, band_rows, levels), pixel_size_m=pixel_size_m)
