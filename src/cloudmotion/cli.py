"""Batch front end: generate fields, run campaigns, export measurement series.

Configs are simple `key = value` text files; every run writes a manifest
recording the resolved seeds and input digests next to its outputs, so any
output directory can be reproduced from the manifest alone.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 insufficient data.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cmae import InsufficientPairsError
from .evaluation import CampaignConfig, run_campaign, write_results_csv, write_scatter_csvs
from .fleet import TrajectoryParseError, load_shadow_mask, load_trajectories
from .fractal_field import (
    _BLOCK_ROWS,
    _LEVEL_KSTAR,
    auto_pixel_size,
    make_clearsky_field,
    required_field_side,
)
from .geometry import Rect
from .rasters import write_clearsky_pgm
from .transit import SPEED_MAX_MPS, TransitConfig, draw_truth, export_series, run_transit


class ConfigError(ValueError):
    """Config file missing, malformed, or holding inadmissible values."""


def parse_config(path) -> dict:
    """Read `key = value` lines; # starts a comment, blank lines ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _get(cfg: dict, key: str, cast, default=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing config key '{key}'")
    try:
        return cast(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None


def _float_list(text: str) -> tuple:
    return tuple(float(p) for p in text.split(","))


def _int_list(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def _bounds(text: str) -> Rect:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("bounds must be 'x0,y0,x1,y1'")
    return Rect(*parts)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, out: Path, inputs: dict, seeds: dict) -> None:
    """out/manifest.json: the command, config and input digests, seeds, versions."""
    payload = {
        "command": args.command,
        "config_path": str(args.config),
        "config_sha256": _sha256(args.config),
        "inputs": {name: _sha256(p) for name, p in inputs.items()},
        "seeds": seeds,
        "out_dir": str(out),
        # the numpy version decides the bits of the field and the estimates
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    (out / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _timed(seconds: dict, key: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    seconds[key] = round(time.perf_counter() - t0, 4)
    return out


def _check_inputs(paths: dict) -> None:
    missing = [f"{name}: {p}" for name, p in paths.items() if not Path(p).is_file()]
    if missing:
        raise FileNotFoundError("missing input files: " + "; ".join(missing))


def _power_of_two(cfg: dict, key: str) -> int:
    side = _get(cfg, key, int)
    if side < 2 or side & (side - 1) != 0:
        raise ConfigError(f"{key} must be a power of two, got {side}")
    return side


def cmd_genfield(args) -> int:
    cfg = parse_config(args.config)
    side = _power_of_two(cfg, "side_px")
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    field = make_clearsky_field(
        side_px=side,
        fractal_dimension=_get(cfg, "fractal_dimension", float, 1.5),
        seed=seed,
        transition_halfwidth=_get(cfg, "transition_halfwidth", float, 0.15),
        pixel_size_m=_get(cfg, "pixel_size_m", float, 1.0),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pgm = out / "field.pgm"
    write_clearsky_pgm(field, pgm)
    # level ranks are k* ranks; bincount copies its input to intp, so blocks
    counts = sum(
        np.bincount(field.levels[r0 : r0 + _BLOCK_ROWS].ravel(), minlength=256)
        for r0 in range(0, side, _BLOCK_ROWS)
    )
    present = np.flatnonzero(counts)
    middle = np.searchsorted(np.cumsum(counts), [(side * side - 1) // 2, side * side // 2], "right")
    print(
        f"wrote {pgm} ({side}x{side}, {field.pixel_size_m:g} m/px); "
        f"kstar min {_LEVEL_KSTAR[present[0]]:.4f} max {_LEVEL_KSTAR[present[-1]]:.4f} "
        f"median {float(_LEVEL_KSTAR[middle].mean()):.4f}"
    )
    _write_manifest(args, out, {}, {"field": seed})
    return 0


def _load_scenario(cfg: dict, setup_s: dict):
    bounds = _get(cfg, "bounds", _bounds)
    paths = {"trajectories": cfg.get("trajectories", "")}
    if not paths["trajectories"]:
        raise ConfigError("missing config key 'trajectories'")
    if "mask" in cfg:
        paths["mask"] = cfg["mask"]
    _check_inputs(paths)
    ds = _timed(setup_s, "trajectories", load_trajectories, paths["trajectories"], bounds)
    mask = _timed(setup_s, "mask", load_shadow_mask, cfg["mask"]) if "mask" in cfg else None
    return bounds, ds, mask, paths


def _build_field(cfg: dict, bounds: Rect, duration_s: int, seed: int):
    side = _power_of_two(cfg, "field_side_px")
    required = required_field_side(duration_s, SPEED_MAX_MPS, bounds.diagonal)
    pixel = _get(cfg, "field_pixel_size_m", float, auto_pixel_size(side, required))
    if side * pixel < required:
        raise ConfigError(
            f"field extent {side * pixel:g} m below the required {required:g} m"
        )
    return make_clearsky_field(
        side_px=side,
        fractal_dimension=_get(cfg, "fractal_dimension", float, 1.5),
        seed=seed,
        transition_halfwidth=_get(cfg, "transition_halfwidth", float, 0.15),
        pixel_size_m=pixel,
    )


def cmd_campaign(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    cfg = parse_config(args.config)
    timings = {"setup_s": {}}
    bounds, ds, mask, input_paths = _load_scenario(cfg, timings["setup_s"])
    base_seed = args.seed if args.seed is not None else _get(cfg, "base_seed", int, 0)
    field_seed = _get(cfg, "field_seed", int, base_seed + 1)
    duration = _get(cfg, "duration_s", int, 300)
    # CampaignConfig checks the sweep first, so a bad value exits before the costly field build
    campaign = CampaignConfig(
        field=None,
        dataset=ds,
        bounds=bounds,
        mask=mask,
        n_simulations=_get(cfg, "n_simulations", int),
        dmin_list=_get(cfg, "dmin_list", _float_list),
        timestep_list=_get(cfg, "timestep_list", _int_list),
        pr_list=_get(cfg, "pr_list", _float_list, (1.0,)),
        base_seed=base_seed,
        sampling_period_s=_get(cfg, "sampling_period_s", int, 1),
        duration_s=duration,
        k_neighbors=_get(cfg, "k_neighbors", int, 3),
    )
    field = _timed(timings["setup_s"], "field", _build_field, cfg, bounds, duration, field_seed)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = _timed(timings, "campaign_s", run_campaign, replace(campaign, field=field), args.jobs)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if all(
        not np.isfinite(row[3]) for cell in result.cells.values() for row in cell.scatter
    ):
        raise InsufficientPairsError(
            "no simulation produced an estimate; the fleet is too thin for "
            f"k_neighbors={campaign.k_neighbors}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(result, out / "results.csv")
    write_scatter_csvs(result, out)
    # ru_maxrss is in kB; the children's spans every child ever reaped, so only a pool run owns it
    timings.update(
        worker_cpu_s=round(sum(after[:2]) - sum(before[:2]), 4),  # user + system
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        worker_peak_rss_mb=after.ru_maxrss / 1024 if args.jobs > 1 else None,
        nproc=os.cpu_count(),
        numba=importlib.util.find_spec("numba") is not None,
        # per pr, summed over simulations: stage seconds and the search counters
        telemetry={f"{pr:g}": tel for pr, tel in result.telemetry.items()},
        # each (pr, block of draws) task's wall seconds, in submission order
        tasks=list(result.tasks),
    )
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    _write_manifest(args, out, input_paths, {"base": base_seed, "field": field_seed})
    print(f"wrote {out / 'results.csv'} ({len(result.cells)} cells, "
          f"{campaign.n_simulations} simulations)")
    return 0


def cmd_export_series(args) -> int:
    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else _get(cfg, "seed", int, 0)
    tcfg = TransitConfig(
        duration_s=_get(cfg, "duration_s", int, 300),
        sampling_period_s=_get(cfg, "sampling_period_s", int, 1),
        seed=seed,
    )
    n_series = _get(cfg, "n_series", int, 1)
    if n_series < 1:
        raise ConfigError("n_series must be >= 1")
    bounds, ds, mask, input_paths = _load_scenario(cfg, {})
    # a fleet or mask that cannot serve the transit fails before the costly field build
    ds.check_duration(tcfg.duration_s)
    if mask is not None:
        mask.check_covers(bounds)
    field = _build_field(cfg, bounds, tcfg.duration_s, _get(cfg, "field_seed", int, seed + 1))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(n_series):
        series_cfg = replace(tcfg, seed=seed + i)
        series = run_transit(field, ds, mask, draw_truth(seed + i), series_cfg)
        export_series(series, series_cfg, out / f"series_{i:03d}.csv")
    _write_manifest(args, out, input_paths, {"base": seed})
    print(f"wrote {n_series} series to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudmotion",
        description="Cloud-shadow motion estimation from mobile sensor networks.",
        epilog="exit codes: 0 ok, 1 validation error, 2 I/O error, 3 insufficient data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"genfield": cmd_genfield, "campaign": cmd_campaign, "export": cmd_export_series}
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "campaign":
            p.add_argument("--jobs", type=int, default=1, help="parallel simulations")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TrajectoryParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientPairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
