"""Shared test constructions: exact-translation grid series and friends."""
import numpy as np

from cloudmotion.fractal_field import ClearSkyField
from cloudmotion.gridding import GridSnapshot
from cloudmotion.rasters import read_pgm, sidecar_path, write_pgm


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


def translation_grids(seed, ny, nx, dx, dy, n_snaps, spacing_s=10, low=0.09, high=1.2):
    """Grid snapshots that translate by exactly (dx, dy) cells per spacing.

    Snapshot k is a window into one random base array, with the window
    origin moving by (-dx, -dy) per step so the pattern seen through the
    window moves by (+dx, +dy): G_{k+1}(cell) == G_k(cell - (dx, dy)).
    """
    rng = np.random.default_rng(seed)
    pad_x, pad_y = n_snaps * abs(dx) + 1, n_snaps * abs(dy) + 1
    base = rng.uniform(low, high, (ny + 2 * pad_y, nx + 2 * pad_x))
    grids = []
    for k in range(n_snaps):
        oy = pad_y - k * dy
        ox = pad_x - k * dx
        window = base[oy : oy + ny, ox : ox + nx].copy()
        grids.append(GridSnapshot(t=k * spacing_s, values=window, valid=True))
    return grids
