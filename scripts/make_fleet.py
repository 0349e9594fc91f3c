#!/usr/bin/env python3
"""Write a synthetic random-walk fleet to the t,vehicle_id,x,y format.

Example:
    python scripts/make_fleet.py --out fleet.csv --vehicles 100 \
        --bounds 0,0,600,900 --duration 300 --seed 42
"""
import argparse

from cloudmotion.geometry import Rect
from cloudmotion.synth import random_walk_fleet, write_trajectories_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--vehicles", type=int, default=100)
    ap.add_argument("--bounds", default="0,0,600,900", help="x0,y0,x1,y1 meters")
    ap.add_argument("--duration", type=int, default=300)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    bounds = Rect(*(float(p) for p in args.bounds.split(",")))
    ds = random_walk_fleet(args.vehicles, bounds, args.duration, seed=args.seed)
    write_trajectories_csv(ds, args.out)
    print(f"wrote {len(ds.table)} records for {args.vehicles} vehicles to {args.out}")


if __name__ == "__main__":
    main()
