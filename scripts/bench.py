#!/usr/bin/env python3
"""Where the seconds of the criterion-3 desk campaign go, written as JSON.

Builds the criterion-3 scenario of tests/test_acceptance.py, timing the
whole set-up, the field, the fractal surface alone and load_trajectories
reading the fleet back from a CSV, as the CLI does.  Then runs that
campaign with run_campaign at jobs=2 over --sims truth draws.  The JSON
holds the campaign wall time, result.telemetry per pr (stage seconds and
the search counters, summed over simulations by the library), the
workers' CPU seconds to check those against, the peak RSS of this process
and of its largest worker, and every scatter row, so runs of two versions
of the library can be checked for identical results.

    PYTHONPATH=src python scripts/bench.py --sims 30 --out stages.json
"""
import argparse
import importlib.util
import json
import os
import platform
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from cloudmotion.evaluation import CampaignConfig, run_campaign
from cloudmotion.fleet import load_trajectories
from cloudmotion.fractal_field import (
    auto_pixel_size,
    generate_fractal,
    make_clearsky_field,
    required_field_side,
)
from cloudmotion.geometry import Rect
from cloudmotion.synth import random_walk_fleet, write_trajectories_csv

# The criterion-3 scenario of tests/test_acceptance.py: field size and
# seed, fleet size and seed, bounds, duration, the dmin, time step and pr
# sweep, base seed and jobs.  Keep the two the same, or these timings stop
# describing the campaign that test measures.
BOUNDS = Rect(0.0, 0.0, 600.0, 900.0)
DURATION_S = 300
PRS = (0.1, 0.4, 0.7, 1.0)
JOBS = 2


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, round(time.perf_counter() - t0, 4)


def run(n_sims: int) -> dict:
    t0 = time.perf_counter()
    pixel = auto_pixel_size(2048, required_field_side(DURATION_S, 30.0, BOUNDS.diagonal))
    field, field_s = _timed(make_clearsky_field, 2048, 1.5, seed=7, pixel_size_m=pixel)
    fleet = random_walk_fleet(100, BOUNDS, DURATION_S, seed=42)
    cfg = CampaignConfig(
        field=field, dataset=fleet, bounds=BOUNDS, n_simulations=n_sims,
        dmin_list=(10.0,), timestep_list=(10,), pr_list=PRS, base_seed=0,
        sampling_period_s=1, duration_s=DURATION_S,
    )
    setup_s = round(time.perf_counter() - t0, 4)
    _, fractal_s = _timed(generate_fractal, 2048, 1.5, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "fleet.csv"
        write_trajectories_csv(fleet, csv)
        _, load_s = _timed(load_trajectories, csv, BOUNDS)

    cpu0 = sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2])  # user + system
    result, campaign_s = _timed(run_campaign, cfg, jobs=JOBS)
    worker_cpu_s = sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2]) - cpu0
    telemetry = {f"{pr:g}": tel for pr, tel in result.telemetry.items()}
    return {
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "numba": importlib.util.find_spec("numba") is not None,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "worker_peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024},
        "sims": n_sims,
        "setup_s": setup_s,
        "field_s": field_s,
        "fractal_s": fractal_s,
        "load_s": load_s,
        "campaign_s": campaign_s,
        "worker_cpu_s": round(worker_cpu_s, 4),
        "stage_s": round(sum(v for tel in telemetry.values()
                             for k, v in tel.items() if k.endswith("_s")), 4),
        "telemetry": telemetry,
        "scatter": {f"d{d:g}_t{ts:g}_pr{pr:g}": [list(row) for row in cell.scatter]
                    for (d, ts, pr), cell in sorted(result.cells.items())},
    }


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--sims", type=int, default=30, help="truth draws (criterion 3 runs 30)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    result = run(args.sims)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    for pr, tel in result["telemetry"].items():
        print(f"pr {pr:>4}  " + "  ".join(
            f"{k} {v:7.2f}" for k, v in tel.items() if k.endswith("_s")))
    print(f"campaign {result['campaign_s']:.2f} s wall, stages {result['stage_s']:.2f} s, "
          f"worker cpu {result['worker_cpu_s']:.2f} s")


if __name__ == "__main__":
    main()
