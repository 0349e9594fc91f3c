"""Binary PGM (P5) raster I/O plus the sidecar conventions used here.

Rasters are stored row 0 first with row index increasing northward
(world y), column index increasing eastward (world x).  Image viewers
will therefore show fields mirrored top-to-bottom; the files are meant
for round-tripping and visual sanity checks, not cartography.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .fractal_field import ClearSkyField


def write_pgm(path, levels: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM (P5), maxval 255."""
    levels = np.asarray(levels)
    if levels.ndim != 2 or levels.dtype != np.uint8:
        raise ValueError("PGM export expects a 2-D uint8 array")
    ny, nx = levels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) with maxval 255 into a 2-D uint8 array."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment line; unterminated, it ends the header
            pos = data.find(b"\n", pos) + 1 or len(data)
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    magic, w, h, maxval = fields
    if magic != b"P5" or maxval != b"255" or not (w.isdigit() and h.isdigit()):
        raise ValueError(f"{path}: expected binary PGM with a numeric size and maxval 255")
    nx, ny = int(w), int(h)
    if len(data) - pos < nx * ny:
        raise ValueError(f"{path}: PGM raster holds {len(data) - pos} of its {nx * ny} bytes")
    raster = np.frombuffer(data, dtype=np.uint8, count=nx * ny, offset=pos)
    return raster.reshape(ny, nx).copy()


def sidecar_path(pgm_path) -> Path:
    return Path(pgm_path).with_suffix(".txt")


def write_clearsky_pgm(field: ClearSkyField, path) -> None:
    """8-bit field export: PGM levels plus a sidecar holding pixel_size_m."""
    write_pgm(path, field.levels)
    sidecar_path(path).write_text(f"{field.pixel_size_m:g}\n")
