"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale campaign (criteria 3-5) runs once as a session fixture:
2048 px fractal field, 100-vehicle random-walk fleet on 600 m x 900 m,
30 seeded simulations, dmin 10 m, time step 10 s, 1 s sampling, nested
penetration subsets {0.1, 0.4, 0.7, 1.0} with paired truth draws.
"""
import hashlib
import math
import time

import numpy as np
import pytest

from cloudmotion.cli import main as cli_main
from cloudmotion.cmae import accumulate_cmae, displacement_candidates, estimate_cmv
from cloudmotion.evaluation import (
    CampaignConfig,
    direction_error,
    run_campaign,
    write_results_csv,
    write_scatter_csvs,
)
from cloudmotion.fleet import SensorSnapshot
from cloudmotion.fractal_field import (
    ClearSkyField,
    auto_pixel_size,
    cloud_to_clearsky,
    make_clearsky_field,
    required_field_side,
)
from cloudmotion.geometry import Rect
from cloudmotion.gridding import GridSpec, idw_interpolate
from cloudmotion.synth import random_walk_fleet, write_trajectories_csv
from cloudmotion.transit import TransitConfig, draw_truth, is_valid_event, run_transit
from helpers import grid_block, translation_grids

BOUNDS = Rect(0.0, 0.0, 600.0, 900.0)
DMIN = 10.0
TIMESTEP = 10
PR_LIST = (0.1, 0.4, 0.7, 1.0)
N_SIMS = 30

# sha256 of the desk campaign's output files (numpy 2.4): every simulation
# at every penetration rate, so any change to transit sampling, validity,
# gridding or the search that moves one estimate shows here
CRITERION_3_DIGESTS = {
    "results.csv": "ac61f81450b1aaa364cc340745b3bc61356a864de2d1eaf28204582a6b9e3344",
    "scatter_d10_t10_pr0.1.csv": "1e96e29a20cbaea3ce0219919b9c0145680afe433303cdb922844718daf7c48c",
    "scatter_d10_t10_pr0.4.csv": "74aa1a19726c06960062b2b575799ee1ee6788d348289c7a92acb9afbeab357e",
    "scatter_d10_t10_pr0.7.csv": "79a6126d702de478857c3037b8002a37de6977ec05732ce78e641b3502c15b95",
    "scatter_d10_t10_pr1.csv": "286e18d5e43731cdef345d91b5c49b7844e3e4960d1ea3f79d6acf09f998f489",
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def fleet():
    return random_walk_fleet(100, BOUNDS, 300, seed=42)


@pytest.fixture(scope="session")
def field_pixel():
    return auto_pixel_size(2048, required_field_side(300, 30.0, BOUNDS.diagonal))


@pytest.fixture(scope="session")
def desk_campaign(fleet, field_pixel):
    field = make_clearsky_field(2048, 1.5, seed=7, pixel_size_m=field_pixel)
    cfg = CampaignConfig(
        field=field,
        dataset=fleet,
        bounds=BOUNDS,
        n_simulations=N_SIMS,
        dmin_list=(DMIN,),
        timestep_list=(TIMESTEP,),
        pr_list=PR_LIST,
        base_seed=0,
        sampling_period_s=1,
        duration_s=300,
    )
    t0 = time.perf_counter()
    result = run_campaign(cfg, jobs=2)
    return result, time.perf_counter() - t0


def test_criterion_1_clearsky_map_exactness():
    checks = {
        -0.2: 1.2,
        0.0: 1.0,
        0.8: 0.2,
        1.05: 0.0949425,
    }
    worst = max(abs(cloud_to_clearsky(n) - k) for n, k in checks.items())
    quad_at_08 = 1.1661 - 1.7814 * 0.8 + 0.7250 * 0.8**2
    gap = quad_at_08 - cloud_to_clearsky(0.8)
    ok = worst <= 1e-6 and abs(gap - 4.98e-3) <= 1e-6 and gap <= 5e-3
    _report(
        "criterion 1 (cloud-index map exactness)",
        ok,
        f"max boundary error {worst:.2e}, branch gap {gap:.5f}",
    )


def test_criterion_2_translation_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    draws = []
    while len(draws) < 50:
        dx, dy = int(rng.integers(-21, 22)), int(rng.integers(-21, 22))
        if 1.0 <= math.hypot(dx, dy) <= 30.0:
            draws.append((dx, dy))
    worst_speed, worst_dir = 0.0, 0.0
    quantum = DMIN / TIMESTEP
    for i, (dx, dy) in enumerate(draws):
        grids = translation_grids(seed=100 + i, ny=40, nx=40, dx=dx, dy=dy,
                                  n_snaps=8, spacing_s=TIMESTEP)
        surface = accumulate_cmae(grids, TIMESTEP, DMIN, v_cap=40.0)
        est = estimate_cmv(surface, TIMESTEP, DMIN)
        truth_speed = math.hypot(dx, dy) * DMIN / TIMESTEP
        truth_dir = math.degrees(math.atan2(dx, dy)) % 360.0
        speed_err = abs(est.speed - truth_speed)
        dir_tol = math.degrees(math.atan2(quantum, truth_speed))
        dir_err = abs(direction_error(truth_dir, est.direction_deg))
        assert speed_err <= quantum / 2 + 1e-9, (dx, dy, est)
        assert dir_err <= dir_tol + 1e-9, (dx, dy, est)
        worst_speed = max(worst_speed, speed_err)
        worst_dir = max(worst_dir, dir_err)
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    _report(
        "criterion 2 (translation oracle, 50 draws)",
        ok,
        f"worst speed err {worst_speed:.2e} m/s, worst direction err {worst_dir:.2e} deg, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_desk_scale_rmse(desk_campaign):
    result, elapsed = desk_campaign
    cell = result.cell(DMIN, TIMESTEP, 1.0)
    ok = (
        cell.rmse_speed is not None
        and cell.rmse_speed <= 3.5
        and cell.rmse_direction <= 20.0
        and elapsed <= 600.0
    )
    _report(
        "criterion 3 (desk-scale end-to-end)",
        ok,
        f"rmse_speed {cell.rmse_speed:.2f} m/s (<= 3.5), "
        f"rmse_direction {cell.rmse_direction:.2f} deg (<= 20), "
        f"n_valid {cell.n_valid}/{N_SIMS}, campaign {elapsed:.0f}s (<= 600)",
    )


def test_criterion_3_output_digests(desk_campaign, tmp_path):
    result, _ = desk_campaign
    write_results_csv(result, tmp_path / "results.csv")
    write_scatter_csvs(result, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert got == CRITERION_3_DIGESTS


def test_criterion_4_penetration_monotonicity(desk_campaign):
    result, _ = desk_campaign
    r10 = result.cell(DMIN, TIMESTEP, 1.0).rmse_speed
    r04 = result.cell(DMIN, TIMESTEP, 0.4).rmse_speed
    r01 = result.cell(DMIN, TIMESTEP, 0.1).rmse_speed
    ok = r10 <= r04 <= r01 and r04 <= 5.0
    _report(
        "criterion 4 (penetration monotonicity)",
        ok,
        f"rmse_speed pr1.0 {r10:.2f} <= pr0.4 {r04:.2f} <= pr0.1 {r01:.2f}; "
        f"pr0.4 {r04:.2f} <= 5",
    )


def test_criterion_5_validity_filter(desk_campaign, fleet, field_pixel):
    clear = ClearSkyField(
        levels=np.full((2048, 2048), 255, dtype=np.uint8),  # k* = 1.2, clear sky
        pixel_size_m=field_pixel,
    )
    n_clear_valid = 0
    for i in range(N_SIMS):
        series = run_transit(clear, fleet, None, draw_truth(i), TransitConfig(300, 1))
        n_clear_valid += is_valid_event(series, BOUNDS, 60)
    result, _ = desk_campaign
    n_overcast_valid = sum(1 for row in result.cell(DMIN, TIMESTEP, 1.0).scatter if row[5])
    ok = n_clear_valid == 0 and n_overcast_valid >= 25
    _report(
        "criterion 5 (validity-filter analog)",
        ok,
        f"clear field {n_clear_valid}/{N_SIMS} valid (= 0), "
        f"fractal sweep {n_overcast_valid}/{N_SIMS} valid (>= 25)",
    )


def test_criterion_6_estimator_invariants():
    rng = np.random.default_rng(8)
    # IDW convexity and exactness at a sensor
    sensors = [(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0.09, 1.2))
               for _ in range(25)]
    sensors.append((20.0, 30.0, 0.42))  # exactly on a grid point of a 10 m grid
    snap = SensorSnapshot(t=0, sensors=tuple(sensors))
    grid = idw_interpolate(snap, GridSpec(Rect(0, 0, 100, 100), 10.0), 3)
    zs = [s[2] for s in sensors]
    convex = min(zs) - 1e-12 <= grid.values.min() and grid.values.max() <= max(zs) + 1e-12
    exact = grid.values[3, 2] == 0.42

    # CMAE ranking invariance under affine value scaling
    grids = grid_block([rng.uniform(0.09, 1.2, (15, 15)) for _ in range(4)])
    scaled = grid_block(3.7 * grids.values + 0.25)
    s1 = accumulate_cmae(grids, 10, 10.0, v_cap=10.0)
    s2 = accumulate_cmae(scaled, 10, 10.0, v_cap=10.0)
    affine = np.allclose(s2.cmae, 3.7 * s1.cmae, rtol=1e-4) and np.array_equal(
        np.argsort(s1.cmae, kind="stable"), np.argsort(s2.cmae, kind="stable")
    )

    # east-west mirror negates the east component exactly (dyadic values)
    base = rng.integers(0, 64, size=(60, 48)).astype(np.float64) / 64.0
    fwd, mir = [], []
    for k in range(4):
        w = base[20 - 2 * k : 40 - 2 * k, 20 - 3 * k : 40 - 3 * k]
        fwd.append(w)
        mir.append(w[:, ::-1])
    e = estimate_cmv(accumulate_cmae(grid_block(fwd), 10, 10.0), 10, 10.0)
    em = estimate_cmv(accumulate_cmae(grid_block(mir), 10, 10.0), 10, 10.0)
    ve = e.speed * math.sin(math.radians(e.direction_deg))
    vem = em.speed * math.sin(math.radians(em.direction_deg))
    vn = e.speed * math.cos(math.radians(e.direction_deg))
    vnm = em.speed * math.cos(math.radians(em.direction_deg))
    mirror = abs(vem + ve) < 1e-9 and abs(vnm - vn) < 1e-9

    # the 40 m/s cap bounds both the candidate set and any estimate
    cands = displacement_candidates(15, 15, 50.0, 10, v_cap=40.0)
    cand_speeds = 50.0 * np.hypot(cands[:, 0], cands[:, 1]) / 10.0
    est = estimate_cmv(accumulate_cmae(grids, 10, 50.0, v_cap=40.0), 10, 50.0)
    capped = cand_speeds.max() <= 40.0 and est.speed <= 40.0 + 1e-9

    # direction errors wrap into (-180, 180]
    wraps = (
        direction_error(0.0, 180.0) == 180.0
        and abs(direction_error(350.0, 10.0)) == pytest.approx(20.0)
        and all(-180.0 < direction_error(a, b) <= 180.0
                for a in (0.0, 90.0, 271.5) for b in (0.0, 179.9, 359.9))
    )

    ok = convex and exact and affine and mirror and capped and wraps
    _report(
        "criterion 6 (estimator invariants)",
        ok,
        f"idw_convex={convex} sensor_exact={exact} affine={affine} "
        f"mirror={mirror} cap={capped} wrap={wraps}",
    )


def test_criterion_7_deterministic_outputs(tmp_path):
    fleet_csv = tmp_path / "fleet.csv"
    write_trajectories_csv(random_walk_fleet(30, Rect(0, 0, 300, 300), 60, seed=12), fleet_csv)
    (tmp_path / "run.cfg").write_text(
        f"trajectories = {fleet_csv}\n"
        "bounds = 0,0,300,300\n"
        "n_simulations = 3\n"
        "dmin_list = 10\n"
        "timestep_list = 10\n"
        "pr_list = 0.5,1.0\n"
        "base_seed = 2\n"
        "duration_s = 60\n"
        "field_side_px = 512\n"
        "field_seed = 99\n"
    )
    outputs = []
    for out_name, jobs in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / out_name
        code = cli_main(
            ["campaign", "--config", str(tmp_path / "run.cfg"), "--out", str(out), "--jobs", jobs]
        )
        assert code == 0
        blobs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        outputs.append(blobs)
    identical = outputs[0] == outputs[1] == outputs[2]
    ok = identical and len(outputs[0]) == 3  # results.csv + 2 scatter files
    _report(
        "criterion 7 (byte-identical reruns, --jobs > 1)",
        ok,
        f"{len(outputs[0])} CSVs identical across two serial runs and one --jobs 2 run",
    )
