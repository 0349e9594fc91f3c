import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cloudmotion.evaluation as evaluation
from cloudmotion import gridding
from cloudmotion.evaluation import (
    CampaignConfig,
    UndefinedStatisticError,
    direction_error,
    rmse,
    run_campaign,
    scatter_filename,
    write_results_csv,
    write_scatter_csvs,
)
from cloudmotion.fleet import ShadowMask
from cloudmotion.fractal_field import ClearSkyField, auto_pixel_size, make_clearsky_field, required_field_side
from cloudmotion.geometry import Rect
from cloudmotion.synth import random_walk_fleet

BOUNDS = Rect(0.0, 0.0, 300.0, 300.0)
DURATION = 120


def _small_config(**overrides):
    required = required_field_side(DURATION, 30.0, BOUNDS.diagonal)
    pixel = auto_pixel_size(512, required)
    defaults = dict(
        field=make_clearsky_field(512, 1.5, seed=99, pixel_size_m=pixel),
        dataset=random_walk_fleet(40, BOUNDS, DURATION, seed=4),
        bounds=BOUNDS,
        n_simulations=2,
        dmin_list=(10.0,),
        timestep_list=(10,),
        pr_list=(1.0,),
        base_seed=2,
        sampling_period_s=1,
        duration_s=DURATION,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


# ------------------------------------------------------------------ metrics

def test_rmse_examples():
    assert rmse([0.0, 0.0, 0.0]) == 0.0
    assert rmse([3.0, -4.0]) == pytest.approx(np.sqrt(25.0 / 2.0), rel=1e-12)
    assert rmse([3.0, -4.0]) == pytest.approx(3.5355, abs=1e-4)
    assert rmse([2.5] * 7) == pytest.approx(2.5, rel=1e-12)


def test_rmse_empty_is_error():
    with pytest.raises(UndefinedStatisticError):
        rmse([])


def test_direction_error_examples():
    assert abs(direction_error(350.0, 10.0)) == pytest.approx(20.0)
    assert direction_error(123.4, 123.4) == 0.0
    assert direction_error(0.0, 180.0) == 180.0


@given(st.floats(0.0, 359.999), st.floats(0.0, 359.999))
def test_direction_error_wrapped(truth, est):
    err = direction_error(truth, est)
    assert -180.0 < err <= 180.0
    # the wrapped error reproduces the estimate angle on the circle
    a, b = np.deg2rad(truth + err), np.deg2rad(est)
    assert np.cos(a) == pytest.approx(np.cos(b), abs=1e-9)
    assert np.sin(a) == pytest.approx(np.sin(b), abs=1e-9)


# ---------------------------------------------------------------- campaigns

def test_campaign_validates_timestep_limit():
    with pytest.raises(ValueError, match="shorter-side"):
        _small_config(timestep_list=(20,))  # 300 m / 30 mps = 10 s max


def test_campaign_validates_n_simulations():
    with pytest.raises(ValueError):
        _small_config(n_simulations=0)


@pytest.mark.parametrize(
    "override",
    [
        {"timestep_list": (0,)},
        {"timestep_list": (10, -10)},
        {"sampling_period_s": 0},
        {"dmin_list": (0.0,)},
        {"dmin_list": (-10.0,)},
        {"k_neighbors": 0},
        {"dmin_list": (10.0, np.inf)},
        {"dmin_list": (10.0, np.nan)},
    ],
)
def test_campaign_validates_parameters(override):
    with pytest.raises(ValueError):
        _small_config(**override)


@pytest.mark.parametrize(
    "override, message",
    [
        ({"pr_list": (0.0,)}, "penetration rate must be in (0, 1], got 0.0"),
        ({"pr_list": (1.0, 1.5)}, "penetration rate must be in (0, 1], got 1.5"),
        ({"pr_list": (np.nan,)}, "penetration rate must be in (0, 1], got nan"),
        ({"duration_s": 0}, "duration and sampling period must be positive"),
        ({"duration_s": DURATION + 10}, f"dataset covers {DURATION} s but the transit needs"),
        ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
        ({"min_variability_s": -1}, "min_variability_s must be >= 0, got -1"),
        ({"mask": ShadowMask(np.zeros((2, 2), dtype=bool), (0.0, 0.0), 100.0)},
         "shadow mask does not cover the observation bounds"),
        ({"pr_list": ()}, "pr_list must not be empty"),
        ({"dmin_list": ()}, "dmin_list must not be empty"),
        ({"timestep_list": ()}, "timestep_list must not be empty"),
    ],
    ids=["pr-0", "pr-above-1", "pr-nan", "duration-0", "duration-past-fleet", "seed-neg", "variability-neg",
         "mask-short-of-bounds", "pr-empty", "dmin-empty", "timestep-empty"],
)
def test_campaign_checks_sweep_and_scenario(override, message):
    # each of these used to surface only in a simulation, after the field was built
    with pytest.raises(ValueError) as exc:
        _small_config(**override)
    assert message in str(exc.value)


@pytest.mark.parametrize("corners", [(0, 0, np.inf, 300), (-np.inf, 0, 300, 300), (0, np.nan, 300, 300)])
def test_rect_rejects_non_finite_corners(corners):
    with pytest.raises(ValueError, match="non-finite"):
        Rect(*corners)


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_campaign_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_campaign(_small_config(n_simulations=1), jobs=jobs)


def test_campaign_single_sim_near_exact():
    # base_seed 2 draws ~8.6 m/s @ 107.5 deg; a pure-translation sweep over a
    # dense fleet must land within the displacement quantum (1 m/s)
    cfg = _small_config(n_simulations=1)
    result = run_campaign(cfg)
    cell = result.cell(10.0, 10, 1.0)
    assert cell.n_valid == 1
    sim, t_s, t_d, e_s, e_d, valid, capped = cell.scatter[0]
    assert valid and not capped
    assert e_s == pytest.approx(t_s, abs=1.0)
    assert abs(direction_error(t_d, e_d)) < 10.0


def test_campaign_deterministic_and_jobs_invariant():
    cfg = _small_config()
    r1 = run_campaign(cfg, jobs=1)
    r2 = run_campaign(cfg, jobs=1)
    r3 = run_campaign(cfg, jobs=2)
    assert r1.cells.keys() == r2.cells.keys() == r3.cells.keys()
    for key in r1.cells:
        assert r1.cells[key] == r2.cells[key]
        assert r1.cells[key] == r3.cells[key]
    # the stage seconds vary from run to run; the search counters do not
    assert r1.telemetry.keys() == r3.telemetry.keys() == {1.0}
    for pr, tel in r1.telemetry.items():
        seconds = {k for k in tel if k.endswith("_s")}
        assert seconds == {"transit_s", "validity_s", "gridding_s", "search_s"}
        assert all(tel[k] >= 0.0 for k in seconds)
        counters = {k: v for k, v in tel.items() if k not in seconds}
        assert counters == {k: v for k, v in r3.telemetry[pr].items() if k not in seconds}
        assert counters["candidates"] > 0
        assert counters["candidates"] == sum(
            counters[k] for k in ("rejected_pooled", "rejected_block", "rejected_partial",
                                  "full_sads")
        )


def test_campaign_blocks_of_draws_do_not_change_results():
    # 3 draws at 2 prs: jobs 1 gives one block of 3 per pr (one selection,
    # applied to the other draws), jobs 3 blocks of 2 + 1, jobs 6 one draw
    # per task (grid_series each)
    cfg = _small_config(pr_list=(0.5, 1.0), n_simulations=3)
    results = {jobs: run_campaign(cfg, jobs=jobs) for jobs in (1, 3, 6)}
    sizes = {jobs: [(t["pr"], t["first_draw"], t["draws"]) for t in r.tasks]
             for jobs, r in results.items()}
    assert sizes == {1: [(0.5, 0, 3), (1.0, 0, 3)],
                     3: [(0.5, 0, 2), (0.5, 2, 1), (1.0, 0, 2), (1.0, 2, 1)],
                     6: [(pr, i, 1) for pr in (0.5, 1.0) for i in range(3)]}
    assert all(t["wall_s"] > 0 for r in results.values() for t in r.tasks)
    base = results[1]
    for r in results.values():
        assert r.cells == base.cells
        for pr, tel in r.telemetry.items():
            counters = {k: v for k, v in tel.items() if not k.endswith("_s")}
            assert counters == {k: v for k, v in base.telemetry[pr].items()
                                if not k.endswith("_s")}


def test_serial_campaign_releases_its_state(monkeypatch):
    # jobs=1 runs in the caller's process: the field and datasets must not
    # stay referenced once the campaign returns or fails
    cfg = _small_config(n_simulations=1)
    run_campaign(cfg, jobs=1)
    assert evaluation._STATE == {}

    def failing(pr, draws):
        raise RuntimeError("simulation failed")

    monkeypatch.setattr(evaluation, "_simulate_block", failing)
    with pytest.raises(RuntimeError):
        run_campaign(cfg, jobs=1)
    assert evaluation._STATE == {}


def test_full_fleet_selection_kept_across_campaigns(monkeypatch):
    # at pr 1.0 every task grids from the caller's dataset's layout, so a
    # second campaign on it selects no neighbours and gives the same results
    calls = []
    select = gridding._select
    monkeypatch.setattr(gridding, "_select", lambda *args: calls.append(args) or select(*args))
    cfg = _small_config(n_simulations=2)
    first = run_campaign(cfg, jobs=1)
    selected = len(calls)
    assert selected > 0
    second = run_campaign(cfg, jobs=1)
    assert len(calls) == selected
    assert second.cells == first.cells
    counters = [{k: v for k, v in r.telemetry[1.0].items() if not k.endswith("_s")}
                for r in (first, second)]
    assert counters[0] == counters[1]


def test_subsample_layout_freed_with_its_task(monkeypatch):
    # below pr 1.0 a task's subsample, its layout and the layout's
    # selections are freed by reference counting once the task ends
    layouts = []
    grid = evaluation.grid_series
    monkeypatch.setattr(evaluation, "grid_series",
                        lambda series, *args: layouts.append(weakref.ref(series.layout))
                        or grid(series, *args))
    cfg = _small_config(pr_list=(0.5,), n_simulations=2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_campaign(cfg, jobs=1)
    finally:
        if enabled:
            gc.enable()
    assert len(layouts) == 2 and layouts[0]() is None and layouts[1]() is None


def test_campaign_paired_truth_draws_across_cells():
    cfg = _small_config(pr_list=(0.5, 1.0), n_simulations=3)
    result = run_campaign(cfg)
    truths_half = [(r[1], r[2]) for r in result.cell(10.0, 10, 0.5).scatter]
    truths_full = [(r[1], r[2]) for r in result.cell(10.0, 10, 1.0).scatter]
    assert truths_half == truths_full


def test_campaign_zero_valid_cell_is_reported_empty():
    flat = ClearSkyField(
        levels=np.full((512, 512), 255, dtype=np.uint8),  # k* = 1.2, clear sky
        pixel_size_m=auto_pixel_size(512, required_field_side(DURATION, 30.0, BOUNDS.diagonal)),
    )
    cfg = _small_config(field=flat)
    result = run_campaign(cfg)
    cell = result.cell(10.0, 10, 1.0)
    assert cell.n_valid == 0
    assert cell.rmse_speed is None and cell.rmse_direction is None
    assert len(cell.scatter) == cfg.n_simulations


# ------------------------------------------------------------------- output

def test_results_csv_format(tmp_path):
    cfg = _small_config()
    result = run_campaign(cfg)
    path = tmp_path / "results.csv"
    write_results_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "dmin,timestep,pr,n_valid,rmse_speed_mps,rmse_direction_deg"
    assert len(lines) == 1 + len(result.cells)
    first = lines[1].split(",")
    assert first[0] == "10" and first[1] == "10" and first[2] == "1"


def test_scatter_csv_format(tmp_path):
    cfg = _small_config()
    result = run_campaign(cfg)
    paths = write_scatter_csvs(result, tmp_path)
    assert [p.name for p in paths] == [scatter_filename(10.0, 10, 1.0)]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "sim,truth_speed,truth_dir,est_speed,est_dir,valid_event,capped"
    assert len(lines) == 1 + cfg.n_simulations
    assert lines[1].split(",")[0] == "0"
