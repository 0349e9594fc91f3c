#!/usr/bin/env python3
"""Per-stage seconds of desk-scale simulations, written as JSON.

Builds the criterion-3 scenario once (2048 px field, 100-vehicle fleet on
600 m x 900 m, dmin 10 m, time step 10 s, 1 s sampling), timing the whole
set-up and the field on its own.  Two set-up stages are timed apart from
it: the fractal surface alone (the rest of the field time is the median
and the level map), and load_trajectories reading the fleet back from a
temporary CSV, as the CLI does.  Then for each
truth-draw seed and penetration rate (0.1 and 1.0) times the three
per-simulation stages with time.perf_counter: run_transit, grid_series
and search_cmv.
Each record also holds the estimate, so runs of two versions of the
library can be checked for identical results, and search_cmv's counters
(candidates, bounds computed and rejections per level, chunks summed by
partial distortion, full exact SADs).  The process's peak RSS goes into
env.

    PYTHONPATH=src python scripts/bench.py --seeds 1,2,3 --out stages.json
"""
import argparse
import json
import os
import platform
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from cloudmotion.cmae import InsufficientPairsError, search_cmv
from cloudmotion.fleet import load_trajectories, subsample_by_penetration
from cloudmotion.fractal_field import (
    auto_pixel_size,
    generate_fractal,
    make_clearsky_field,
    required_field_side,
)
from cloudmotion.geometry import Rect
from cloudmotion.gridding import GridSpec, grid_series
from cloudmotion.synth import random_walk_fleet, write_trajectories_csv
from cloudmotion.transit import TransitConfig, draw_truth, run_transit

# The criterion-3 scenario of tests/test_acceptance.py (field size and
# seed, fleet size and seed, bounds, duration); keep the two the same, or
# these timings stop describing the campaign that test measures.
BOUNDS = Rect(0.0, 0.0, 600.0, 900.0)
DURATION_S = 300
DMIN = 10.0
TIMESTEP_S = 10
PRS = (0.1, 1.0)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, round(time.perf_counter() - t0, 4)


def run(seeds, prs) -> dict:
    t0 = time.perf_counter()
    pixel = auto_pixel_size(2048, required_field_side(DURATION_S, 30.0, BOUNDS.diagonal))
    field, field_s = _timed(make_clearsky_field, 2048, 1.5, seed=7, pixel_size_m=pixel)
    fleet = random_walk_fleet(100, BOUNDS, DURATION_S, seed=42)
    ds_by_pr = {pr: subsample_by_penetration(fleet, pr, 0) for pr in prs}
    setup_s = round(time.perf_counter() - t0, 4)
    _, fractal_s = _timed(generate_fractal, 2048, 1.5, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "fleet.csv"
        write_trajectories_csv(fleet, csv)
        _, load_s = _timed(load_trajectories, csv, BOUNDS)

    records = []
    for seed in seeds:
        truth = draw_truth(seed)
        tcfg = TransitConfig(duration_s=DURATION_S, sampling_period_s=1, seed=seed)
        for pr, ds in ds_by_pr.items():
            series, transit_s = _timed(run_transit, field, ds, None, truth, tcfg)
            grids, grid_s = _timed(grid_series, series, GridSpec(BOUNDS, DMIN), 3)
            search_stats = {}
            try:
                est, search_s = _timed(search_cmv, grids, TIMESTEP_S, DMIN, stats=search_stats)
                estimate = {"speed": est.speed, "direction_deg": est.direction_deg,
                            "top3": [list(d) for d in est.top3]}
            except InsufficientPairsError:
                search_s, estimate = None, None
            records.append({
                "seed": seed, "pr": pr,
                "run_transit_s": transit_s, "grid_series_s": grid_s, "search_cmv_s": search_s,
                "estimate": estimate, "search_stats": search_stats,
            })

    stages = ("run_transit_s", "grid_series_s", "search_cmv_s")
    return {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
        "scenario": {"field_px": 2048, "vehicles": 100, "bounds": [0, 0, 600, 900],
                     "dmin": DMIN, "timestep_s": TIMESTEP_S, "duration_s": DURATION_S},
        "setup_s": setup_s,
        "field_s": field_s,
        "fractal_s": fractal_s,
        "load_s": load_s,
        "totals_s": {s: round(sum(r[s] or 0.0 for r in records), 4) for s in stages},
        "records": records,
    }


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--seeds", default="1,2,3", help="truth-draw seeds, comma-separated")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    result = run([int(s) for s in args.seeds.split(",")], PRS)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    for s, v in result["totals_s"].items():
        print(f"{s:>15} {v:8.2f}")


if __name__ == "__main__":
    main()
