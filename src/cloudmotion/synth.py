"""Synthetic fleets for experiments where no traffic data is at hand.

Vehicles perform seeded random walks: constant per-vehicle speed (uniform
in 4-16 m/s), heading diffusing by a 20 degree standard deviation every
second, specular reflection at the area edges.
Crude as traffic, but it yields a mobile sensor network with realistic
churn in the spatial distribution.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .fleet import TrajectoryDataset, trajectory_table
from .geometry import Rect


def random_walk_fleet(
    n_vehicles: int,
    bounds: Rect,
    duration_s: int,
    seed: int,
) -> TrajectoryDataset:
    """Seeded random-walk fleet with one record per vehicle per second."""
    if n_vehicles < 1 or duration_s < 1:
        raise ValueError("need at least one vehicle and one second")
    rng = np.random.default_rng(seed)
    width = max(len(str(n_vehicles - 1)), 3)
    ids = [f"v{i:0{width}d}" for i in range(n_vehicles)]

    x = rng.uniform(bounds.x0, bounds.x1, n_vehicles)
    y = rng.uniform(bounds.y0, bounds.y1, n_vehicles)
    heading = rng.uniform(0.0, 2.0 * np.pi, n_vehicles)
    speed = rng.uniform(4.0, 16.0, n_vehicles)
    turn_sigma = np.deg2rad(20.0)

    steps = duration_s + 1
    xs, ys = [], []
    for _ in range(steps):
        xs.append(x)
        ys.append(y)
        heading = heading + rng.normal(0.0, turn_sigma, n_vehicles)
        x = x + speed * np.sin(heading)
        y = y + speed * np.cos(heading)
        # Reflect at the edges; flip the matching heading component.
        for lo, hi, arr, flip in (
            (bounds.x0, bounds.x1, x, "x"),
            (bounds.y0, bounds.y1, y, "y"),
        ):
            low = arr < lo
            high = arr > hi
            arr[low] = 2 * lo - arr[low]
            arr[high] = 2 * hi - arr[high]
            bounced = low | high
            if flip == "x":
                heading[bounced] = -heading[bounced]
            else:
                heading[bounced] = np.pi - heading[bounced]
            # A huge step could still overshoot; clamp as a last resort.
            np.clip(arr, lo, hi, out=arr)

    table = trajectory_table(
        np.tile(ids, steps), np.repeat(np.arange(steps), n_vehicles), np.ravel(xs), np.ravel(ys)
    )
    return TrajectoryDataset(table, (0, duration_s), bounds)


def write_trajectories_csv(ds: TrajectoryDataset, path) -> None:
    """Write a dataset back to the t,vehicle_id,x,y interchange format."""
    lines = ["t,vehicle_id,x,y"]
    tab = ds.table
    times = (tab["t"] + ds.window[0]).tolist()
    rows = zip(times, tab["vehicle_id"].tolist(), tab["x"].tolist(), tab["y"].tolist())
    lines += [f"{t},{vid},{x:.3f},{y:.3f}" for t, vid, x, y in rows]
    Path(path).write_text("\n".join(lines) + "\n")
