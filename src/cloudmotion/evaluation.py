"""Monte Carlo campaigns: seeded truth draws, parameter sweeps, RMSE tables.

Every simulation index draws its own (speed, direction) truth from
base_seed + index, shared across all (dmin, timestep, pr) cells, so sweep
cells are event-matched.  RMSEs aggregate valid events only; scatter rows
keep every simulation because a single outlier can dominate the RMSE.

A task is one penetration rate over a block of consecutive truth draws.
The draws of a pr share one sampling layout and differ in k* only, and
grid_series keeps each dmin's neighbour rows on it for every later draw.
Gridding writes the float32 blocks that the search reads in place.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from pathlib import Path
from typing import Optional

import numpy as np

from .cmae import _STATS_KEYS, V_CAP_MPS, InsufficientPairsError, invalid_estimate, search_cmv
# The exhaustive pair stays importable here: perfbench/run.py --trace 1
# wraps these names on this module.
from .cmae import accumulate_cmae, estimate_cmv  # noqa: F401
from .fleet import ShadowMask, TrajectoryDataset, subsample_by_penetration
from .fractal_field import ClearSkyField
from .geometry import Rect
from .gridding import GridSpec, grid_series
from .transit import SPEED_MAX_MPS, TransitConfig, draw_truth, is_valid_event, run_transit


class UndefinedStatisticError(ValueError):
    """Statistic requested over an empty sample."""


def rmse(errors) -> float:
    """Root of the mean squared error."""
    arr = np.asarray(errors, dtype=np.float64)
    if arr.size == 0:
        raise UndefinedStatisticError("RMSE of an empty error sample is undefined")
    return float(np.sqrt(np.mean(arr * arr)))


def direction_error(truth_deg: float, est_deg: float) -> float:
    """Minimal signed angular difference est - truth, wrapped to (-180, 180]."""
    d = (est_deg - truth_deg + 180.0) % 360.0 - 180.0
    return 180.0 if d == -180.0 else d


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: a scenario, a field, parameter sweeps, seeded draws.

    Parsed once: each sweep keeps the first of equal values (dmin and pr as
    float, timestep as int), and every draw runs on transit and grid_specs,
    whose TransitConfig and GridSpecs check the period, duration and dmin.
    """

    field: ClearSkyField
    dataset: TrajectoryDataset
    bounds: Rect
    mask: Optional[ShadowMask] = None
    n_simulations: int = 100
    dmin_list: tuple = (10.0,)
    timestep_list: tuple = (10,)
    pr_list: tuple = (1.0,)
    base_seed: int = 0
    sampling_period_s: int = 1
    duration_s: int = 300
    k_neighbors: int = 3
    min_variability_s: int = 60
    transit: TransitConfig = dataclass_field(init=False, repr=False)
    grid_specs: tuple = dataclass_field(init=False, repr=False)  # a GridSpec per dmin

    def __post_init__(self) -> None:
        if self.n_simulations < 1:
            raise ValueError("n_simulations must be >= 1")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.min_variability_s < 0:
            raise ValueError(f"min_variability_s must be >= 0, got {self.min_variability_s}")
        for name in ("dmin_list", "timestep_list", "pr_list"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        set_parsed = object.__setattr__  # frozen: parsed values replace the given ones
        set_parsed(self, "transit", TransitConfig(self.duration_s, self.sampling_period_s))
        if any(ts <= 0 for ts in self.timestep_list):
            raise ValueError("timesteps must be positive")
        limit = min(self.bounds.width, self.bounds.height) / SPEED_MAX_MPS
        for ts in self.timestep_list:
            if ts > limit:
                raise ValueError(f"timestep {ts} s exceeds the shorter-side limit {limit:.1f} s")
            if ts % self.sampling_period_s != 0:
                raise ValueError("timesteps must be multiples of the sampling period")
        for name, kind in (("dmin_list", float), ("timestep_list", int), ("pr_list", float)):
            set_parsed(self, name, tuple(dict.fromkeys(map(kind, getattr(self, name)))))
        set_parsed(self, "grid_specs", tuple(GridSpec(self.bounds, d) for d in self.dmin_list))
        self.dataset.check_duration(self.duration_s)
        for pr in self.pr_list:
            if not 0.0 < pr <= 1.0:
                raise ValueError(f"penetration rate must be in (0, 1], got {pr}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.mask is not None:
            self.mask.check_covers(self.bounds)


@dataclass(frozen=True)
class TransitOutcome:
    """One simulation in one penetration cell, before RMSE aggregation."""

    truth_speed: float
    truth_direction: float
    valid_event: bool
    estimates: dict  # (dmin, timestep) -> CmvEstimate
    telemetry: dict  # stage seconds (transit_s, ...) and search_cmv's counters


@dataclass(frozen=True)
class CellResult:
    rmse_speed: Optional[float]
    rmse_direction: Optional[float]
    n_valid: int
    scatter: tuple  # (sim, truth_speed, truth_dir, est_speed, est_dir, valid, capped)


@dataclass(frozen=True)
class CampaignResult:
    cells: dict  # (dmin, timestep, pr) -> CellResult
    telemetry: dict  # pr -> TransitOutcome.telemetry summed over simulations
    # per task, in submission order: {"pr", "first_draw", "draws", "wall_s"}
    tasks: tuple = ()

    def cell(self, dmin, timestep, pr) -> CellResult:
        return self.cells[(float(dmin), int(timestep), float(pr))]


# Worker state for process pools; populated by the initializer after fork so
# the field and dataset are shipped once per worker, not once per task.
_STATE: dict = {}


def _init_worker(cfg: CampaignConfig) -> None:
    _STATE["cfg"] = cfg


def _simulate_block(pr: float, draws: range) -> tuple:
    """One penetration rate over consecutive truth draws, in one task.

    Returns a TransitOutcome per draw and the task's wall seconds.  Every
    draw runs on cfg.transit and cfg.grid_specs.  The task subsamples its
    own pr, so the subsample, its layout and the neighbour selections that
    grid_series keeps on it for later draws live as long as the task; at
    pr 1.0 the subsample is cfg.dataset, which outlives it.
    """
    start = time.perf_counter()
    cfg: CampaignConfig = _STATE["cfg"]
    ds = subsample_by_penetration(cfg.dataset, pr, cfg.base_seed)
    outcomes = []
    for sim_index in draws:
        truth = draw_truth(cfg.base_seed + sim_index)
        t0 = time.perf_counter()
        series = run_transit(cfg.field, ds, cfg.mask, truth, cfg.transit)
        t1 = time.perf_counter()
        valid_event = is_valid_event(series, cfg.bounds, cfg.min_variability_s)
        # stage seconds, then the counters that each search_cmv call adds to
        telemetry = {"transit_s": t1 - t0, "validity_s": time.perf_counter() - t1,
                     "gridding_s": 0.0, "search_s": 0.0, **dict.fromkeys(_STATS_KEYS, 0)}
        estimates = {}
        for spec in cfg.grid_specs:
            t0 = time.perf_counter()
            grids = grid_series(series, spec, cfg.k_neighbors)
            t1 = time.perf_counter()
            for ts in cfg.timestep_list:
                try:
                    est = search_cmv(grids, ts, spec.dmin, stats=telemetry)
                except InsufficientPairsError:
                    est = invalid_estimate()
                estimates[(spec.dmin, ts)] = est
            del grids
            telemetry["gridding_s"] += t1 - t0
            telemetry["search_s"] += time.perf_counter() - t1
        outcomes.append(TransitOutcome(
            truth_speed=truth.speed,
            truth_direction=truth.direction_deg,
            valid_event=valid_event,
            estimates=estimates,
            telemetry=telemetry,
        ))
    return outcomes, time.perf_counter() - start


def _blocks(n_draws: int, n_blocks: int) -> list:
    """n_draws split into at most n_blocks runs of consecutive draws, longest first."""
    n_blocks = min(n_blocks, n_draws)
    size, extra = divmod(n_draws, n_blocks)
    cuts = [i * size + min(i, extra) for i in range(n_blocks + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def run_campaign(cfg: CampaignConfig, jobs: int = 1) -> CampaignResult:
    """Run all simulations; aggregate per-cell RMSE tables and per-pr telemetry.

    A task is one penetration rate over a block of consecutive truth draws;
    each pr of cfg's deduplicated sweep gets ceil(jobs / prs) blocks, and
    its parsed (dmin, timestep, pr) values key the cells.  Aggregation is
    an ordered reduction over simulation indices, so the result is
    independent of how many worker processes, hence blocks, were used.
    At jobs=1 the pr 1.0 neighbour selections (about 5 MB per dmin on the
    desk grid) stay on cfg.dataset's layout, so the next campaign on it
    skips them.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    blocks = _blocks(cfg.n_simulations, -(-jobs // len(cfg.pr_list)))
    tasks = [(pr, draws) for pr in cfg.pr_list for draws in blocks]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(cfg,)) as pool:
            # each task goes to the next free worker: prs and truth draws
            # take different times, so fixed shares could leave one idle
            done = list(pool.map(_simulate_block, *zip(*tasks), chunksize=1))
    else:
        _init_worker(cfg)
        try:
            done = [_simulate_block(pr, draws) for pr, draws in tasks]
        finally:
            _STATE.clear()  # the caller's process must not keep the campaign alive

    # back in draw order: per pr, the outcome of every simulation index
    outcomes = {pr: [None] * cfg.n_simulations for pr in cfg.pr_list}
    for (pr, draws), (block, _) in zip(tasks, done):
        outcomes[pr][draws.start:draws.stop] = block
    task_timings = tuple(
        {"pr": pr, "first_draw": draws.start, "draws": len(draws), "wall_s": wall}
        for (pr, draws), (_, wall) in zip(tasks, done)
    )
    telemetry = {pr: {} for pr in cfg.pr_list}
    for pr, per_sim in outcomes.items():
        for oc in per_sim:
            telemetry[pr] = {k: telemetry[pr].get(k, 0) + v for k, v in oc.telemetry.items()}

    cells = {}
    for dmin in cfg.dmin_list:
        for ts in cfg.timestep_list:
            for pr in cfg.pr_list:
                speed_err, dir_err, scatter = [], [], []
                for i, oc in enumerate(outcomes[pr]):
                    est = oc.estimates[(dmin, ts)]
                    capped = bool(est.valid and est.speed >= V_CAP_MPS - dmin / ts)
                    scatter.append(
                        (i, oc.truth_speed, oc.truth_direction,
                         est.speed, est.direction_deg, oc.valid_event, capped)
                    )
                    if oc.valid_event and est.valid:
                        speed_err.append(est.speed - oc.truth_speed)
                        dir_err.append(direction_error(oc.truth_direction, est.direction_deg))
                n_valid = len(speed_err)
                cells[(dmin, ts, pr)] = CellResult(
                    rmse_speed=rmse(speed_err) if n_valid else None,
                    rmse_direction=rmse(dir_err) if n_valid else None,
                    n_valid=n_valid,
                    scatter=tuple(scatter),
                )
    return CampaignResult(cells=cells, telemetry=telemetry, tasks=task_timings)


def write_results_csv(result: CampaignResult, path) -> None:
    """dmin,timestep,pr,n_valid,rmse_speed_mps,rmse_direction_deg table."""
    lines = ["dmin,timestep,pr,n_valid,rmse_speed_mps,rmse_direction_deg"]
    for (dmin, ts, pr) in sorted(result.cells):
        cell = result.cells[(dmin, ts, pr)]
        rs = f"{cell.rmse_speed:.6f}" if cell.rmse_speed is not None else ""
        rd = f"{cell.rmse_direction:.6f}" if cell.rmse_direction is not None else ""
        lines.append(f"{dmin:g},{ts:g},{pr:g},{cell.n_valid},{rs},{rd}")
    Path(path).write_text("\n".join(lines) + "\n")


def scatter_filename(dmin, timestep, pr) -> str:
    return f"scatter_d{dmin:g}_t{timestep:g}_pr{pr:g}.csv"


def write_scatter_csvs(result: CampaignResult, outdir) -> list:
    """One scatter CSV per cell; returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for (dmin, ts, pr), cell in sorted(result.cells.items()):
        lines = ["sim,truth_speed,truth_dir,est_speed,est_dir,valid_event,capped"]
        for sim, t_s, t_d, e_s, e_d, valid, capped in cell.scatter:
            lines.append(
                f"{sim},{t_s:.6f},{t_d:.6f},{e_s:.6f},{e_d:.6f},{int(valid)},{int(capped)}"
            )
        path = outdir / scatter_filename(dmin, ts, pr)
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written
