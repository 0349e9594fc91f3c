"""Fractal cloud-shadow fields and their clear-sky-index representation.

Pipeline: a midpoint-displacement (diamond-square) fractal surface is
thresholded at its median into cloudy/clear regions with a linear
transition band, giving a cloud-index raster n in [-0.2, 1.2]; n is then
mapped through an empirical piecewise relation to clear-sky indices
k* in [0.09, 1.2], and optionally reduced to 8-bit levels for storage.

Every step after the median is elementwise, so it runs on blocks of
_BLOCK_ROWS rows written into one float32 output; float64 temporaries
are the size of one block, never of the raster.  make_clearsky_field
fuses the steps per block.  Measured with numpy 2.4: at 1024 px its
tracemalloc peak is 3.2x the output's bytes (10.8x when each step built
a full raster), and a fresh process building a 2048 px field peaks at
83 MB RSS (231 MB before), a 4096 px field at 224 MB (727 MB before);
generate_fractal's own working set is now the larger part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KSTAR_MIN = 0.09
KSTAR_MAX = 1.2
CLOUD_INDEX_MIN = -0.2
CLOUD_INDEX_MAX = 1.2

# Rows per block of the elementwise steps after the median.  At 4096 px
# the whole pipeline took 1.07 s with 32-row blocks, 0.88 s with 128,
# 1.29 s with 512 and 1.85 s unblocked (2-core Xeon, numpy 2.4).
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
class FractalSurface:
    """Square fractal surface from midpoint displacement.

    values are dimensionless float32; roughness is controlled by
    fractal_dimension D in (1, 2) via the per-level amplitude decay
    2**-(3 - D).
    """

    values: np.ndarray
    side_px: int
    fractal_dimension: float

    def __post_init__(self) -> None:
        if self.values.shape != (self.side_px, self.side_px):
            raise ValueError("surface is not square with the declared side")


@dataclass(frozen=True)
class CloudIndexField:
    """Cloud-index raster n in [-0.2, 1.2]; -0.2 fully clear, 1.2 fully cloudy."""

    n: np.ndarray
    side_px: int
    pixel_size_m: float


@dataclass(frozen=True)
class ClearSkyField:
    """Clear-sky-index raster k* in [0.09, 1.2] with world-space pixel size."""

    kstar: np.ndarray
    side_px: int
    pixel_size_m: float

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


def generate_fractal(side_px: int, fractal_dimension: float, seed: int) -> FractalSurface:
    """Generate a square fractal surface by diamond-square recursion.

    The surface is built on a (2**k + 1) grid and cropped to side_px when a
    power-of-two side is requested.  Gaussian displacements shrink by
    2**-(3 - fractal_dimension) per subdivision level.  Output is
    reproducible bit for bit for a fixed (side_px, fractal_dimension, seed).
    """
    k = _admissible_grid_exponent(side_px)
    if not 1.0 < fractal_dimension < 2.0:
        raise ValueError(f"fractal_dimension must be in (1, 2), got {fractal_dimension}")

    n = 1 << k
    hurst = 3.0 - fractal_dimension
    decay = np.float32(2.0 ** (-hurst))
    rng = np.random.default_rng(seed)

    grid = np.zeros((n + 1, n + 1), dtype=np.float32)
    grid[::n, ::n] = rng.standard_normal((2, 2), dtype=np.float32)

    amp = np.float32(1.0)
    step = n
    while step > 1:
        half = step // 2
        amp *= decay

        # Diamond: square centers get the 4-corner mean plus displacement.
        tl = grid[0:n:step, 0:n:step]
        tr = grid[0:n:step, step : n + 1 : step]
        bl = grid[step : n + 1 : step, 0:n:step]
        br = grid[step : n + 1 : step, step : n + 1 : step]
        centers = grid[half:n:step, half:n:step]
        centers[...] = (tl + tr + bl + br) * np.float32(0.25)
        centers += rng.standard_normal(centers.shape, dtype=np.float32) * amp

        # Square: edge midpoints average their 3 or 4 axial neighbors at
        # distance `half` -- corner-lattice points up/down (or left/right)
        # and the fresh diamond centers on the other axis.
        m = n // step
        corners = grid[0 : n + 1 : step, 0 : n + 1 : step]  # (m+1, m+1)
        diam = grid[half : n + 1 : step, half : n + 1 : step]  # (m, m)

        lat_a = grid[half : n + 1 : step, 0 : n + 1 : step]  # (m, m+1)
        acc = corners[:m, :] + corners[1:, :]
        cnt = np.full(lat_a.shape, 2, dtype=np.int8)
        acc[:, 1:] += diam
        cnt[:, 1:] += 1
        acc[:, :-1] += diam
        cnt[:, :-1] += 1
        lat_a[...] = acc / cnt
        lat_a += rng.standard_normal(lat_a.shape, dtype=np.float32) * amp

        lat_b = grid[0 : n + 1 : step, half : n + 1 : step]  # (m+1, m)
        acc = corners[:, :m] + corners[:, 1:]
        cnt = np.full(lat_b.shape, 2, dtype=np.int8)
        acc[1:, :] += diam
        cnt[1:, :] += 1
        acc[:-1, :] += diam
        cnt[:-1, :] += 1
        lat_b[...] = acc / cnt
        lat_b += rng.standard_normal(lat_b.shape, dtype=np.float32) * amp

        step = half

    values = np.ascontiguousarray(grid[:side_px, :side_px])
    return FractalSurface(values=values, side_px=side_px, fractal_dimension=fractal_dimension)


def _map_rows(src: np.ndarray, fn, dtype=np.float32) -> np.ndarray:
    """fn applied block of rows by block of rows, written into one array.

    Bit-identical to fn(src) for any elementwise fn, with float64
    temporaries the size of one block instead of the whole raster.
    """
    out = np.empty(src.shape, dtype=dtype)
    for r0 in range(0, src.shape[0], _BLOCK_ROWS):
        out[r0 : r0 + _BLOCK_ROWS] = fn(src[r0 : r0 + _BLOCK_ROWS])
    return out


def _median_threshold(surface: FractalSurface, transition_halfwidth: float):
    """Validated median of the surface, the one global step of the pipeline."""
    if transition_halfwidth <= 0:
        raise ValueError("transition_halfwidth must be positive")
    v = surface.values
    if v.min() == v.max():
        raise DegenerateSurfaceError("all surface values equal; median separates nothing")
    return np.median(v)


def _cloud_index_rows(v: np.ndarray, t, transition_halfwidth: float) -> np.ndarray:
    """Cloud index of surface values v given the median threshold t."""
    lo = np.float32(CLOUD_INDEX_MIN)
    hi = np.float32(CLOUD_INDEX_MAX)
    frac = np.clip((v - (t - transition_halfwidth)) / (2.0 * transition_halfwidth), 0.0, 1.0)
    n = np.clip(frac * (hi - lo) + lo, lo, hi).astype(np.float32)
    # saturate the band edges exactly; float32 rounding must not leave the
    # fully clear/cloudy plateaus a hair inside the endpoints
    n[v <= t - transition_halfwidth] = lo
    n[v >= t + transition_halfwidth] = hi
    return n


def _clearsky_rows(n: np.ndarray) -> np.ndarray:
    return cloud_to_clearsky(n).astype(np.float32)


def _quantized_rows(kstar: np.ndarray) -> np.ndarray:
    return _LEVEL_KSTAR[kstar_to_levels(kstar)]


def to_cloud_index(
    surface: FractalSurface,
    transition_halfwidth: float = 0.15,
    pixel_size_m: float = 1.0,
) -> CloudIndexField:
    """Threshold a surface at its median with a linear transition band.

    Values at or below median - halfwidth map to -0.2 (fully clear), at or
    above median + halfwidth to 1.2 (fully cloudy); the band in between maps
    linearly, so the median itself lands on 0.5.
    """
    t = _median_threshold(surface, transition_halfwidth)
    n = _map_rows(surface.values, lambda v: _cloud_index_rows(v, t, transition_halfwidth))
    return CloudIndexField(n=n, side_px=surface.side_px, pixel_size_m=pixel_size_m)


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


def clearsky_field(cloud: CloudIndexField) -> ClearSkyField:
    """Apply the cloud-index -> clear-sky-index map to a whole raster."""
    kstar = _map_rows(cloud.n, _clearsky_rows)
    return ClearSkyField(kstar=kstar, side_px=cloud.side_px, pixel_size_m=cloud.pixel_size_m)


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


def quantize_8bit(field: ClearSkyField) -> ClearSkyField:
    """Round-trip k* through 256 linear levels; idempotent, error <= half a step."""
    kstar = _map_rows(field.kstar, _quantized_rows)
    return ClearSkyField(kstar=kstar, side_px=field.side_px, pixel_size_m=field.pixel_size_m)


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
    quantize: bool = True,
) -> ClearSkyField:
    """Full generation pipeline: fractal -> cloud index -> k*, 8-bit by default.

    Equals quantize_8bit(clearsky_field(to_cloud_index(...))) bit for bit,
    but runs every step after the median on one block of rows at a time, so
    no cloud-index, unquantised or float64 full raster is built.
    """
    surf = generate_fractal(side_px, fractal_dimension, seed)
    t = _median_threshold(surf, transition_halfwidth)

    def rows(v):
        kstar = _clearsky_rows(_cloud_index_rows(v, t, transition_halfwidth))
        return _quantized_rows(kstar) if quantize else kstar

    kstar = _map_rows(surf.values, rows)
    return ClearSkyField(kstar=kstar, side_px=side_px, pixel_size_m=pixel_size_m)
