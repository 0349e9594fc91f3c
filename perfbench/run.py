#!/usr/bin/env python3
"""cloudmotion benchmark: three workloads, each loading a different stage.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_cmae --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload grid_fine_step --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --record      # re-record perfbench/reference.json

The library is driven only through the public functions the command-line
front end calls.  --seed picks which recorded truth draws run and in what
order; field, fleet and mask are fixed per workload.  Every output file is
hashed and compared with perfbench/reference.json; a scatter row or series
file that differs, or a unit that raises, counts as failed.

With --trace 0 the end-to-end metrics are measured with tracing off.  With
--trace 1 the layer functions that cloudmotion.evaluation looks up are
wrapped with span recorders, the campaign runs at jobs=1 so the spans nest
under the real loop, and the per-layer metrics are derived from the spans.
Each traced unit is also run untraced: the outputs must be byte-identical
and the wall-time difference is the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the environment
(numba presence, Python and numpy versions, nproc, seed); the full record,
spans included, is written under .perfbench_out/.  perfbench/README.md
explains why each workload exists and which layer metric should move which
end-to-end metric.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT = ROOT / ".perfbench_out"

if not (SRC / "cloudmotion" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'cloudmotion'} not found; run from the root of a cloudmotion checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cloudmotion import evaluation, fleet, fractal_field, synth, transit  # noqa: E402
from cloudmotion.geometry import Rect  # noqa: E402
from cloudmotion.gridding import GridSpec  # noqa: E402

DURATION_S = 300
DMIN_M = 10.0
FIELD_SEED = 7
FLEET_SEED = 42
MASK_SEED = 11
MASK_BLOCK_M = 50.0
MASK_SHADOWED_SHARE = 0.2
SETUP_REPEATS = 3
# Simulations per traced campaign unit.  One keeps the jobs=1 traced and
# untraced runs of the pooled workload within the run-time limit; scatter
# rows are per simulation, so they still compare with the reference.
TRACE_SIMS = 1


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  kind is "campaign" or "export".

    A unit is the work timed as one piece: one run_campaign call plus its
    CSV writes (sims_per_unit truth draws), or one exported series.  Unit
    seeds come from a pool of unit_pool recorded seeds.
    """

    name: str
    kind: str
    bounds: Rect
    field_px: int
    pixel_size_m: Optional[float]  # None: auto_pixel_size, as the CLI does
    vehicles: int
    jobs: int = 1
    pr_list: tuple = (1.0,)
    timestep_s: int = 10
    sims_per_unit: int = 1
    mask: bool = False
    unit_pool: int = 16

    def toy(self) -> "Workload":
        return dataclasses.replace(
            self,
            name="toy_" + self.name,
            bounds=Rect(0.0, 0.0, 300.0, 450.0),
            field_px=256,
            pixel_size_m=None,
            vehicles=10,
            sims_per_unit=1,
            unit_pool=2,
        )


AREA = Rect(0.0, 0.0, 600.0, 900.0)

WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-3 scenario cut to two truth draws per campaign, with the
        # user's process pool: CMAE is about 85 % of the wall time and IDW
        # gridding most of the rest.
        Workload("desk_cmae", "campaign", AREA, 2048, None, 100, jobs=2,
                 pr_list=(0.1, 1.0), timestep_s=10, sims_per_unit=2, unit_pool=6),
        # Timestep 1 leaves 49 candidates, so IDW gridding is about 90 % of
        # the time; jobs=1 makes it the plain single-process baseline.
        Workload("grid_fine_step", "campaign", AREA, 2048, None, 100, jobs=1,
                 pr_list=(1.0,), timestep_s=1, sims_per_unit=1, unit_pool=20),
        # Mirrors `cloudmotion export` with a building-shadow mask: transit
        # sampling, mask lookups, the validity filter and CSV writes only.
        Workload("transit_export", "export", AREA, 4096, 3.0, 400, mask=True, unit_pool=64),
    )
}

END_TO_END_UNITS = {"outputs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "cmae.accumulate_s": "s",
    "cmae.estimate_s": "s",
    "cmae.candidates": "count",
    "cmae.pairs": "count",
    "cmae.sad_cell_ops": "count",
    "cmae.bytes_computed": "B",
    "cmae.insufficient_ratio": "ratio",
    "cmae.share": "ratio",
    "gridding.grid_series_s": "s",
    "gridding.snapshots": "count",
    "gridding.invalid_snapshots": "count",
    "gridding.distance_evals": "count",
    "gridding.share": "ratio",
    "transit.run_transit_s": "s",
    "transit.is_valid_event_s": "s",
    "transit.valid_event_ratio": "ratio",
    "transit.export_series_s": "s",
    "transit.export_bytes": "B",
    "transit.share": "ratio",
    "fleet.load_trajectories_s": "s",
    "fleet.subsample_s": "s",
    "fleet.sensor_samples": "count",
    "fleet.mask_kept_ratio": "ratio",
    "fleet.share": "ratio",
    "fractal_field.make_s": "s",
    "fractal_field.pixels": "count",
    "evaluation.run_campaign_self_s": "s",
    "evaluation.write_s": "s",
    "evaluation.bytes_written": "B",
    "evaluation.pool_efficiency": "ratio",
    "evaluation.share": "ratio",
    "trace.unit_wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
    "trace.output_mismatches": "count",
}


# ------------------------------------------------------------------ inputs

def field_pixel_size(w: Workload) -> float:
    if w.pixel_size_m is not None:
        return w.pixel_size_m
    required = fractal_field.required_field_side(DURATION_S, transit.SPEED_MAX_MPS, w.bounds.diagonal)
    return fractal_field.auto_pixel_size(w.field_px, required)


def building_mask(bounds: Rect) -> fleet.ShadowMask:
    """Seeded building shadows: about a fifth of 50 m blocks shadowed.

    One spare block row and column past the bounds keeps vehicles clamped
    onto the far edge inside the raster.
    """
    pixel = 10.0
    per_block = int(MASK_BLOCK_M / pixel)
    nbx = int(np.ceil(bounds.width / MASK_BLOCK_M)) + 1
    nby = int(np.ceil(bounds.height / MASK_BLOCK_M)) + 1
    blocks = np.random.default_rng(MASK_SEED).random((nby, nbx)) < MASK_SHADOWED_SHARE
    shadowed = np.kron(blocks, np.ones((per_block, per_block), dtype=bool))
    return fleet.ShadowMask(mask=shadowed, origin=(bounds.x0, bounds.y0), pixel_size_m=pixel)


def write_fleet_csv(w: Workload, workdir: Path) -> Path:
    """The generated input: a random-walk fleet in the CLI's trajectory format."""
    path = workdir / "fleet.csv"
    ds = synth.random_walk_fleet(w.vehicles, w.bounds, DURATION_S, seed=FLEET_SEED)
    synth.write_trajectories_csv(ds, path)
    return path


@dataclass
class Scenario:
    field: fractal_field.ClearSkyField
    dataset: fleet.TrajectoryDataset
    mask: Optional[fleet.ShadowMask]
    campaign: Optional[evaluation.CampaignConfig]


def setup(w: Workload, fleet_csv: Path) -> Scenario:
    """What a user pays before the first result: field, fleet load, mask, config.

    Penetration subsampling runs inside run_campaign, so it is timed there.
    """
    field = fractal_field.make_clearsky_field(
        w.field_px, 1.5, seed=FIELD_SEED, pixel_size_m=field_pixel_size(w)
    )
    ds = fleet.load_trajectories(fleet_csv, w.bounds)
    mask = building_mask(w.bounds) if w.mask else None
    campaign = None
    if w.kind == "campaign":
        campaign = evaluation.CampaignConfig(
            field=field, dataset=ds, bounds=w.bounds, mask=mask,
            n_simulations=w.sims_per_unit, dmin_list=(DMIN_M,), timestep_list=(w.timestep_s,),
            pr_list=w.pr_list, base_seed=0, sampling_period_s=1, duration_s=DURATION_S,
        )
    return Scenario(field, ds, mask, campaign)


def unit_seeds(w: Workload, seed: int):
    """Endless seeded permutation of the recorded unit pool."""
    order = list(range(w.unit_pool))
    random.Random(f"{w.name}/{seed}").shuffle(order)
    return itertools.cycle(order)


def base_seed(w: Workload, unit: int) -> int:
    return unit * w.sims_per_unit


# ------------------------------------------------------------------- units

def run_unit(w: Workload, sc: Scenario, unit: int, outdir: Path, jobs: int, n_sims: int,
             span=nullcontext) -> float:
    """Run one unit into outdir and return its timed span in seconds.

    span() is entered around exactly the timed span.
    """
    outdir.mkdir(parents=True)
    seed = base_seed(w, unit)
    if w.kind == "campaign":
        cfg = dataclasses.replace(sc.campaign, base_seed=seed, n_simulations=n_sims)
        with span():
            t0 = time.perf_counter()
            result = evaluation.run_campaign(cfg, jobs=jobs)
            evaluation.write_results_csv(result, outdir / "results.csv")
            evaluation.write_scatter_csvs(result, outdir)
            return time.perf_counter() - t0
    tcfg = transit.TransitConfig(duration_s=DURATION_S, sampling_period_s=1, seed=seed)
    with span():
        t0 = time.perf_counter()
        truth = transit.draw_truth(seed)
        series = transit.run_transit(sc.field, sc.dataset, sc.mask, truth, tcfg)
        valid = transit.is_valid_event(series, w.bounds)
        transit.export_series(series, tcfg, outdir / f"series_{seed:03d}.csv")
        elapsed = time.perf_counter() - t0
    (outdir / "valid_event.txt").write_text(f"{int(valid)}\n")
    return elapsed


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_outputs(w: Workload, outdir: Path) -> dict:
    """sha256 per output file; per scatter row for campaigns."""
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    record = {"files": {name: sha256(data) for name, data in files.items()}}
    if w.kind == "campaign":
        record["rows"] = {
            name: [sha256(row.encode()) for row in data.decode().splitlines()[1:]]
            for name, data in files.items()
            if name.startswith("scatter_")
        }
    return record


def check_outputs(w: Workload, got: dict, ref: dict, n_sims: int) -> tuple:
    """(attempted, failed, mismatched_files) against the reference record.

    Campaigns count one operation per scatter row (one sweep-cell
    estimate); a unit run with fewer simulations than recorded is compared
    row by row only.  The export workload counts one per series file.
    """
    if w.kind == "export":
        bad = sum(got["files"].get(name) != sha for name, sha in ref["files"].items())
        return 1, int(bad > 0), bad
    attempted = failed = 0
    for name, ref_rows in ref["rows"].items():
        rows = got["rows"].get(name, [])
        expected = ref_rows[:n_sims]
        attempted += len(expected)
        failed += sum(i >= len(rows) or rows[i] != sha for i, sha in enumerate(expected))
        failed += max(0, len(rows) - len(expected))
    bad = 0
    if n_sims == w.sims_per_unit:
        bad = sum(got["files"].get(name) != sha for name, sha in ref["files"].items())
    return attempted, failed, bad


def expected_ops(w: Workload, n_sims: int) -> int:
    return n_sims * len(w.pr_list) if w.kind == "campaign" else 1


# ----------------------------------------------------------------- tracing

class Tracer:
    """In-memory span recorder: (name, start, end, parent index).

    patched() swaps the layer functions that cloudmotion.evaluation and
    the export loop look up for wrappers that record a span around each
    call and add counts measured at the same boundary.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            self.add(name + ".calls", 1)
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                self.add(name + ".raised", 1)
                raise
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def patched(self):
        targets = [
            (evaluation, "subsample_by_penetration", "fleet.subsample", None),
            (evaluation, "draw_truth", "transit.draw_truth", None),
            (evaluation, "run_transit", "transit.run_transit", _count_transit),
            (evaluation, "is_valid_event", "transit.is_valid_event", _count_validity),
            (evaluation, "grid_series", "gridding.grid_series", _count_gridding),
            (evaluation, "accumulate_cmae", "cmae.accumulate", _count_cmae),
            (evaluation, "estimate_cmv", "cmae.estimate", None),
            (evaluation, "run_campaign", "evaluation.run_campaign", None),
            (evaluation, "write_results_csv", "evaluation.write", _count_results_write),
            (evaluation, "write_scatter_csvs", "evaluation.write", _count_scatter_write),
            (transit, "draw_truth", "transit.draw_truth", None),
            (transit, "run_transit", "transit.run_transit", _count_transit),
            (transit, "is_valid_event", "transit.is_valid_event", _count_validity),
            (transit, "export_series", "transit.export_series", _count_export),
            (fractal_field, "make_clearsky_field", "fractal_field.make", _count_field),
            (fleet, "load_trajectories", "fleet.load_trajectories", None),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, count in targets:
                setattr(module, attr, self.wrap(name, getattr(module, attr), count))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (name, start, end, parent), c in zip(self.spans, child)]


def _count_transit(tr, series, field, ds, mask, truth, cfg):
    tr.add("fleet.sensor_samples", sum(len(s.sensors) for s in series.snapshots))
    tr.add("fleet.window_records", sum(len(ds.records_at(t)) for t in cfg.sample_times))


def _count_validity(tr, valid, *args, **kwargs):
    tr.add("transit.valid_events", int(valid))


def _count_gridding(tr, grids, series, spec: GridSpec, k_neighbors=3):
    n_grid = spec.nx * spec.ny
    tr.add("gridding.snapshots", len(grids))
    tr.add("gridding.invalid_snapshots", sum(not g.valid for g in grids))
    tr.add("gridding.distance_evals", sum(
        len(s.sensors) * n_grid for s, g in zip(series.snapshots, grids) if g.valid
    ))


def _count_cmae(tr, surface, grids, *args, **kwargs):
    ny, nx = grids[0].values.shape
    d = surface.displacements
    overlap = int(((nx - np.abs(d[:, 0])) * (ny - np.abs(d[:, 1]))).sum())
    tr.add("cmae.candidates", int(d.shape[0]))
    tr.add("cmae.pairs", surface.pair_count)
    tr.add("cmae.sad_cell_ops", surface.pair_count * overlap)


def _count_results_write(tr, _, result, path):
    tr.add("evaluation.bytes_written", Path(path).stat().st_size)


def _count_scatter_write(tr, written, *args):
    tr.add("evaluation.bytes_written", sum(Path(p).stat().st_size for p in written))


def _count_export(tr, _, series, cfg, path):
    tr.add("transit.export_bytes", Path(path).stat().st_size)


def _count_field(tr, field, *args, **kwargs):
    tr.add("fractal_field.pixels", field.side_px * field.side_px)


# ------------------------------------------------------------------- modes

def load_reference(w: Workload) -> dict:
    try:
        return json.loads(REFERENCE.read_text())[w.name]
    except (OSError, KeyError, ValueError) as exc:
        sys.exit(f"error: no usable reference for {w.name} in {REFERENCE}: {exc!r}")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def another_unit_fits(start: float, done: int, seconds: float) -> bool:
    """Run at least one unit, then another only if one of average length ends in time."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatched_files = 0

    def run_checked(self, w, sc, unit, outdir, jobs, n_sims, ref, span=nullcontext):
        """Run and check one unit; returns (seconds, digests) or None if it raised."""
        try:
            elapsed = run_unit(w, sc, unit, outdir, jobs, n_sims, span)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops = expected_ops(w, n_sims)
            self.attempted += ops
            self.failed += ops
            return None
        got = digest_outputs(w, outdir)
        attempted, failed, bad = check_outputs(w, got, ref[str(unit)], n_sims)
        self.attempted += attempted
        self.failed += failed
        self.mismatched_files += bad
        shutil.rmtree(outdir)
        return elapsed, got


def measure(w: Workload, seed: int, seconds: float, workdir: Path) -> tuple:
    """Tracing off: median of SETUP_REPEATS set-ups, then units for `seconds`."""
    ref = load_reference(w)
    fleet_csv = write_fleet_csv(w, workdir)
    setups = []
    sc = None
    for _ in range(SETUP_REPEATS):
        sc = None
        gc.collect()
        t0 = time.perf_counter()
        sc = setup(w, fleet_csv)
        setups.append(time.perf_counter() - t0)

    tally = Tally()
    units, spans = [], []
    seeds = unit_seeds(w, seed)
    start = time.perf_counter()
    while another_unit_fits(start, len(units), seconds):
        unit = next(seeds)
        units.append(unit)
        done = tally.run_checked(w, sc, unit, workdir / f"u{len(units)}", w.jobs, w.sims_per_unit, ref)
        if done is not None:
            spans.append(done[0])
    # Throughput over every completed unit.  On a host whose CPU speed
    # drifts with its neighbours' load, it spreads less between runs than
    # the median unit rate does.
    metrics = {
        "outputs_per_s": expected_ops(w, w.sims_per_unit) * len(spans) / sum(spans) if spans else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"units": units, "setup_runs_s": setups, "unit_spans_s": spans}
    return tally, metrics, detail


def measure_traced(w: Workload, seed: int, seconds: float, workdir: Path) -> tuple:
    """Tracing on: each unit runs untraced, then traced at jobs=1."""
    ref = load_reference(w)
    fleet_csv = write_fleet_csv(w, workdir)
    tracer = Tracer()
    with tracer.patched(), tracer.span("bench.setup"):
        sc = setup(w, fleet_csv)

    tally = Tally()
    mismatches = 0
    overhead = 0.0
    pool_wall = 0.0  # jobs x untraced wall of the workload's own units
    traced_units = []
    seeds = unit_seeds(w, seed)
    start = time.perf_counter()
    while another_unit_fits(start, len(traced_units), seconds):
        unit = next(seeds)
        n = len(traced_units)
        traced_units.append(unit)
        pooled = tally.run_checked(w, sc, unit, workdir / f"p{n}", w.jobs, w.sims_per_unit, ref)
        serial = pooled
        if w.jobs > 1 or TRACE_SIMS != w.sims_per_unit:
            serial = tally.run_checked(w, sc, unit, workdir / f"s{n}", 1, TRACE_SIMS, ref)
        with tracer.patched():
            traced = tally.run_checked(w, sc, unit, workdir / f"t{n}", 1, TRACE_SIMS, ref,
                                       span=lambda: tracer.span("bench.unit"))
        if pooled is None or serial is None or traced is None:
            continue  # already counted as failed
        pool_wall += w.jobs * pooled[0]
        overhead += traced[0] - serial[0]
        if traced[1]["files"] != serial[1]["files"]:
            mismatches += 1

    per_layer = layer_metrics(w, tracer, len(traced_units), overhead, pool_wall, mismatches)
    tally.failed += mismatches
    detail = {"units": traced_units, "spans": tracer.spans, "counts": tracer.counts}
    return tally, per_layer, detail


def layer_metrics(w, tracer: Tracer, n_units: int, overhead: float, pool_wall: float,
                  mismatches: int) -> dict:
    """Per-layer metrics per traced unit (one simulation or one series).

    Layer self times come from spans inside the traced units; the residual
    is the self time of the unit spans themselves (benchmark glue and
    tracer bookkeeping), so layer self times plus residual equal the wall.
    """
    selfs = tracer.self_times()
    by_name: dict = {}
    unit_wall = residual = 0.0
    for (name, start, end, parent), s in zip(tracer.spans, selfs):
        by_name[name] = by_name.get(name, 0.0) + s
        if name == "bench.unit":
            unit_wall += end - start
            residual += s
    setup_only = {"fractal_field.make", "fleet.load_trajectories"}
    in_units = {n: t for n, t in by_name.items() if not n.startswith("bench.") and n not in setup_only}

    def layer(prefix):
        return sum(t for n, t in in_units.items() if n.startswith(prefix + "."))

    c = tracer.counts
    per = 1.0 / n_units

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    stage = unit_wall - residual
    scale = w.sims_per_unit / TRACE_SIMS if w.kind == "campaign" else 1.0
    metrics = {
        "cmae.accumulate_s": by_name.get("cmae.accumulate", 0.0) * per,
        "cmae.estimate_s": by_name.get("cmae.estimate", 0.0) * per,
        "cmae.candidates": c.get("cmae.candidates", 0) * per,
        "cmae.pairs": c.get("cmae.pairs", 0) * per,
        "cmae.sad_cell_ops": c.get("cmae.sad_cell_ops", 0) * per,
        # computed, not measured: two float32 operands per cell operation
        "cmae.bytes_computed": 8 * c.get("cmae.sad_cell_ops", 0) * per,
        "cmae.insufficient_ratio": ratio("cmae.accumulate.raised", "cmae.accumulate.calls"),
        "cmae.share": layer("cmae") / unit_wall,
        "gridding.grid_series_s": by_name.get("gridding.grid_series", 0.0) * per,
        "gridding.snapshots": c.get("gridding.snapshots", 0) * per,
        "gridding.invalid_snapshots": c.get("gridding.invalid_snapshots", 0) * per,
        "gridding.distance_evals": c.get("gridding.distance_evals", 0) * per,
        "gridding.share": layer("gridding") / unit_wall,
        "transit.run_transit_s": by_name.get("transit.run_transit", 0.0) * per,
        "transit.is_valid_event_s": by_name.get("transit.is_valid_event", 0.0) * per,
        "transit.valid_event_ratio": ratio("transit.valid_events", "transit.is_valid_event.calls"),
        "transit.export_series_s": by_name.get("transit.export_series", 0.0) * per,
        "transit.export_bytes": c.get("transit.export_bytes", 0) * per,
        "transit.share": layer("transit") / unit_wall,
        "fleet.load_trajectories_s": by_name.get("fleet.load_trajectories", 0.0),
        "fleet.subsample_s": by_name.get("fleet.subsample", 0.0) * per,
        "fleet.sensor_samples": c.get("fleet.sensor_samples", 0) * per,
        "fleet.mask_kept_ratio": ratio("fleet.sensor_samples", "fleet.window_records"),
        "fleet.share": layer("fleet") / unit_wall,
        "fractal_field.make_s": by_name.get("fractal_field.make", 0.0),
        "fractal_field.pixels": c.get("fractal_field.pixels", 0),
        "evaluation.run_campaign_self_s": by_name.get("evaluation.run_campaign", 0.0) * per,
        "evaluation.write_s": by_name.get("evaluation.write", 0.0) * per,
        "evaluation.bytes_written": c.get("evaluation.bytes_written", 0) * per,
        "evaluation.pool_efficiency": stage * scale / pool_wall if pool_wall else 0.0,
        "evaluation.share": layer("evaluation") / unit_wall,
        "trace.unit_wall_s": unit_wall * per,
        "trace.residual_s": residual * per,
        "trace.overhead_s": overhead * per,
        "trace.output_mismatches": mismatches,
    }
    return metrics


def environment(args) -> dict:
    return {
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


def record(workloads, workdir: Path) -> None:
    """Run every unit of each pool untraced and store its output digests."""
    for w in workloads:
        fleet_csv = write_fleet_csv(w, workdir)
        sc = setup(w, fleet_csv)
        units = {}
        for unit in range(w.unit_pool):
            outdir = workdir / f"{w.name}_{unit}"
            elapsed = run_unit(w, sc, unit, outdir, w.jobs, w.sims_per_unit)
            units[str(unit)] = digest_outputs(w, outdir)
            shutil.rmtree(outdir)
            print(f"{w.name} unit {unit}: {elapsed:.2f} s", file=sys.stderr)
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        reference[w.name] = units
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        del sc
        gc.collect()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="256 px field, 10 vehicles, 1 simulation per unit (smoke test)")
    ap.add_argument("--record", action="store_true",
                    help="re-record reference.json, full and toy size, for --workload or all")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.record:
            ws = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
            record([w.toy() for w in ws] + ws, workdir)
            return 0
        w = WORKLOADS[args.workload]
        if args.toy:
            w = w.toy()
        run = measure_traced if args.trace else measure
        tally, metrics, detail = run(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": tally.failed == 0 and tally.mismatched_files == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    env = environment(args)
    record_path = OUT / f"{w.name}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps({"env": env, "result": result, "detail": detail}) + "\n")
    print(json.dumps({"env": env, "record": str(record_path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
