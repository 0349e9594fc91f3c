"""Planar geometry shared across the simulation: axis-aligned rectangles.

All coordinates are meters in a local planar frame, x east, y north.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1] in meters."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        # false for any non-finite corner, too: its width or height is inf or nan
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise ValueError(f"degenerate or non-finite rectangle: {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def contains(self, x, y):
        """Whether (x, y) lies in the closed rectangle; elementwise for arrays."""
        return (self.x0 <= x) & (x <= self.x1) & (self.y0 <= y) & (y <= self.y1)

    def central_ninth(self) -> "Rect":
        """Central rectangle of the 3x3 equal division of this rectangle."""
        w3, h3 = self.width / 3.0, self.height / 3.0
        return Rect(self.x0 + w3, self.y0 + h3, self.x0 + 2 * w3, self.y0 + 2 * h3)
