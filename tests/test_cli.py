import json

import numpy as np
import pytest

import cloudmotion.cli as cli
from cloudmotion.cli import ConfigError, main, parse_config
from cloudmotion.fleet import ShadowMask
from cloudmotion.geometry import Rect
from cloudmotion.rasters import sidecar_path
from cloudmotion.synth import random_walk_fleet, write_trajectories_csv
from helpers import MALFORMED_PGMS, read_clearsky_pgm, write_shadow_mask

BOUNDS = Rect(0.0, 0.0, 300.0, 300.0)


@pytest.fixture(scope="module")
def fleet_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "fleet.csv"
    write_trajectories_csv(random_walk_fleet(30, BOUNDS, 60, seed=12), path)
    return path


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


CAMPAIGN_CFG = """
trajectories = {traj}
bounds = 0,0,300,300
n_simulations = 2
dmin_list = 10
timestep_list = 10
pr_list = 1.0
base_seed = 2
sampling_period_s = 1
duration_s = 60
field_side_px = 512
field_seed = 99
"""


# ------------------------------------------------------------- config file

def test_parse_config(tmp_path):
    path = _write_config(tmp_path, "a = 1\n# comment\n\nb = x,y # trailing\n")
    cfg = parse_config(path)
    assert cfg == {"a": "1", "b": "x,y"}


def test_parse_config_rejects_garbage(tmp_path):
    path = _write_config(tmp_path, "just some words\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.cfg")


# --------------------------------------------------------------- genfield

def test_genfield_writes_field_and_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path, "side_px = 64\nseed = 5\npixel_size_m = 2\n")
    out = tmp_path / "out"
    assert main(["genfield", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "kstar min" in printed and "median" in printed
    field = read_clearsky_pgm(out / "field.pgm")
    assert field.side_px == 64 and field.pixel_size_m == 2.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "genfield"
    assert manifest["seeds"] == {"field": 5}


@pytest.mark.parametrize(
    "config,summary",
    [
        # min and max inside the band, median between two levels
        (
            "side_px = 4\nseed = 5\ntransition_halfwidth = 2\n",
            "(4x4, 1 m/px); kstar min 0.2032 max 0.7429 median 0.5014",
        ),
        (
            "side_px = 64\nseed = 5\npixel_size_m = 2\n",
            "(64x64, 2 m/px); kstar min 0.0900 max 1.2000 median 0.4992",
        ),
    ],
)
def test_genfield_summary_line_pinned(tmp_path, capsys, config, summary):
    # lines printed when the summary read a float k* raster
    cfg, out = _write_config(tmp_path, config), tmp_path / "out"
    assert main(["genfield", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'field.pgm'} {summary}\n"


def test_genfield_deterministic_output(tmp_path):
    cfg = _write_config(tmp_path, "side_px = 64\nseed = 5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["genfield", "--config", str(cfg), "--out", str(out1)])
    main(["genfield", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "field.pgm").read_bytes() == (out2 / "field.pgm").read_bytes()


def test_genfield_seed_flag_overrides(tmp_path):
    cfg = _write_config(tmp_path, "side_px = 64\nseed = 5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["genfield", "--config", str(cfg), "--out", str(out1)])
    main(["genfield", "--config", str(cfg), "--out", str(out2), "--seed", "6"])
    assert (out1 / "field.pgm").read_bytes() != (out2 / "field.pgm").read_bytes()


@pytest.mark.parametrize("key", ["transition_halfwidth", "pixel_size_m"])
def test_genfield_non_finite_exit_1(tmp_path, capsys, key):
    cfg = _write_config(tmp_path, f"side_px = 64\nseed = 5\n{key} = nan\n")
    out = tmp_path / "o"
    assert main(["genfield", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {key} must be positive and finite\n"
    assert not out.exists()


def test_genfield_rejects_non_power_of_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, "side_px = 100\nseed = 5\n")
    assert main(["genfield", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "power of two" in capsys.readouterr().err


# --------------------------------------------------------------- campaign

def test_campaign_end_to_end(tmp_path, fleet_csv):
    cfg = _write_config(tmp_path, CAMPAIGN_CFG.format(traj=fleet_csv))
    out = tmp_path / "out"
    assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0].startswith("dmin,timestep,pr")
    assert len(results) == 2
    assert (out / "scatter_d10_t10_pr1.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "trajectories" in manifest["inputs"]
    assert manifest["seeds"]["base"] == 2


def test_campaign_rerun_byte_identical(tmp_path, fleet_csv):
    cfg = _write_config(tmp_path, CAMPAIGN_CFG.format(traj=fleet_csv))
    out1, out2, out3 = (tmp_path / d for d in ("r1", "r2", "r3"))
    main(["campaign", "--config", str(cfg), "--out", str(out1)])
    main(["campaign", "--config", str(cfg), "--out", str(out2)])
    main(["campaign", "--config", str(cfg), "--out", str(out3), "--jobs", "2"])
    for name in ("results.csv", "scatter_d10_t10_pr1.csv"):
        ref = (out1 / name).read_bytes()
        assert (out2 / name).read_bytes() == ref
        assert (out3 / name).read_bytes() == ref


def test_campaign_writes_timings(tmp_path, fleet_csv):
    text = CAMPAIGN_CFG.format(traj=fleet_csv).replace("pr_list = 1.0", "pr_list = 0.5,1.0")
    lit = ShadowMask(mask=np.zeros((30, 30), dtype=bool), origin=(0.0, 0.0), pixel_size_m=10.0)
    write_shadow_mask(lit, tmp_path / "lit.pgm")
    levels = ("rejected_pooled", "rejected_block", "rejected_partial", "full_sads")
    for jobs, extra, setup in ((1, "", ["trajectories", "field"]),
                               (2, f"mask = {tmp_path / 'lit.pgm'}\n", ["trajectories", "mask", "field"])):
        cfg = _write_config(tmp_path, text + extra)
        out = tmp_path / f"jobs{jobs}"
        assert main(["campaign", "--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]) == 0
        timings = json.loads((out / "timings.json").read_text())
        assert list(timings["telemetry"]) == ["0.5", "1"]
        for pr, tel in timings["telemetry"].items():
            assert {"transit_s", "validity_s", "gridding_s", "search_s"} <= tel.keys()
            assert all(tel[k] >= 0 for k in tel), (pr, tel)
            assert sum(tel[k] for k in levels) == tel["candidates"] > 0, (pr, tel)
        assert list(timings["setup_s"]) == setup
        covered = [(t["pr"], t["first_draw"] + i) for t in timings["tasks"] for i in range(t["draws"])]
        assert sorted(covered) == [(pr, i) for pr in (0.5, 1.0) for i in range(2)], timings["tasks"]
        assert all(t["wall_s"] > 0 for t in timings["tasks"]), timings["tasks"]
        numbers = [*timings["setup_s"].values(), timings["campaign_s"], timings["peak_rss_mb"]]
        assert all(type(v) in (int, float) and np.isfinite(v) and v >= 0 for v in numbers), timings
        assert timings["nproc"] >= 1 and isinstance(timings["numba"], bool)
        if jobs == 1:  # no workers: the children's peak would be some earlier child's
            assert timings["worker_cpu_s"] == 0 and timings["worker_peak_rss_mb"] is None
        else:
            assert timings["worker_cpu_s"] > 0, timings
            assert isinstance(timings["worker_peak_rss_mb"], float), timings
            assert timings["worker_peak_rss_mb"] > 0, timings


def test_campaign_missing_inputs_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, CAMPAIGN_CFG.format(traj=tmp_path / "missing.csv"))
    assert main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "missing input files" in capsys.readouterr().err


def test_campaign_zero_sims_exit_1(tmp_path, fleet_csv):
    text = CAMPAIGN_CFG.format(traj=fleet_csv).replace("n_simulations = 2", "n_simulations = 0")
    cfg = _write_config(tmp_path, text)
    assert main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("timestep_list = 10", "timestep_list = 0", "timesteps must be positive"),
        ("timestep_list = 10", "timestep_list = -10", "timesteps must be positive"),
        ("sampling_period_s = 1", "sampling_period_s = 0",
         "duration and sampling period must be positive"),
        ("sampling_period_s = 1", "sampling_period_s = -1",
         "duration and sampling period must be positive"),
        ("dmin_list = 10", "dmin_list = 0", "dmin must be positive and finite"),
        ("dmin_list = 10", "dmin_list = 10,-5", "dmin must be positive and finite"),
        ("field_seed = 99", "field_seed = 99\nk_neighbors = 0", "k_neighbors must be >= 1"),
        ("dmin_list = 10", "dmin_list = inf", "dmin must be positive and finite"),
        ("field_seed = 99", "field_seed = 99\nfield_pixel_size_m = nan",
         "pixel_size_m must be positive and finite"),
        ("field_seed = 99", "field_seed = 99\nfield_pixel_size_m = inf",
         "pixel_size_m must be positive and finite"),
        ("field_seed = 99", "field_seed = 99\ntransition_halfwidth = nan",
         "transition_halfwidth must be positive and finite"),
        ("bounds = 0,0,300,300", "bounds = 0,0,inf,300", "non-finite rectangle"),
        ("pr_list = 1.0", "pr_list = 0", "penetration rate must be in (0, 1], got 0.0"),
        ("pr_list = 1.0", "pr_list = 1.5", "penetration rate must be in (0, 1], got 1.5"),
        ("pr_list = 1.0", "pr_list = nan", "penetration rate must be in (0, 1], got nan"),
        ("duration_s = 60", "duration_s = 0", "duration and sampling period must be positive"),
        ("duration_s = 60", "duration_s = 90", "dataset covers 60 s but the transit needs 90 s"),
        ("base_seed = 2", "base_seed = -1", "base_seed must be >= 0, got -1"),
        ("sampling_period_s = 1", "sampling_period_s = 7",
         "duration_s must be divisible by sampling_period_s"),
    ],
    ids=["timestep-0", "timestep-neg", "period-0", "period-neg", "dmin-0", "dmin-neg", "k-0",
         "dmin-inf", "pixel-nan", "pixel-inf", "halfwidth-nan", "bounds-inf", "pr-0",
         "pr-above-1", "pr-nan", "duration-0", "duration-past-fleet", "seed-neg", "period-7"],
)
def test_campaign_bad_parameters_exit_1(
    tmp_path, fleet_csv, capsys, monkeypatch, old, new, message
):
    # the message tells a validation error from a ValueError raised deeper down
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before the campaign parameters were checked")

    if not message.startswith(("pixel_size_m", "transition_halfwidth")):  # field checks
        monkeypatch.setattr(cli, "make_clearsky_field", no_field)
    text = CAMPAIGN_CFG.format(traj=fleet_csv)
    assert old in text
    cfg = _write_config(tmp_path, text.replace(old, new))
    assert main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("raw", MALFORMED_PGMS.values(), ids=MALFORMED_PGMS.keys())
def test_campaign_malformed_mask_exit_1(tmp_path, fleet_csv, capsys, monkeypatch, raw):
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before the mask was read")

    monkeypatch.setattr(cli, "make_clearsky_field", no_field)
    mask = tmp_path / "mask.pgm"
    mask.write_bytes(raw)
    sidecar_path(mask).write_text("0 0 10\n")
    cfg = _write_config(tmp_path, CAMPAIGN_CFG.format(traj=fleet_csv) + f"mask = {mask}\n")
    out = tmp_path / "o"
    assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {mask}: ")
    assert not out.exists()


def test_campaign_jobs_below_one_exit_1(tmp_path, fleet_csv, capsys, monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before --jobs was checked")

    monkeypatch.setattr(cli, "make_clearsky_field", no_field)
    cfg = _write_config(tmp_path, CAMPAIGN_CFG.format(traj=fleet_csv))
    out = tmp_path / "o"
    assert main(["campaign", "--config", str(cfg), "--out", str(out), "--jobs", "0"]) == 1
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_thin_fleet_exit_3(tmp_path):
    thin = tmp_path / "thin.csv"
    write_trajectories_csv(random_walk_fleet(2, BOUNDS, 60, seed=1), thin)
    cfg = _write_config(tmp_path, CAMPAIGN_CFG.format(traj=thin))
    assert main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


# ----------------------------------------------------------------- export

EXPORT_CFG = """
trajectories = {traj}
bounds = 0,0,300,300
duration_s = 30
sampling_period_s = 1
n_series = 1
seed = 3
field_side_px = 512
field_seed = 99
{extra}
"""


def test_export_series_counts(tmp_path, fleet_csv):
    cfg = _write_config(tmp_path, EXPORT_CFG.format(traj=fleet_csv, extra=""))
    out = tmp_path / "out"
    assert main(["export", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "series_000.csv").read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert header["duration_s"] == 30 and header["sampling_period_s"] == 1
    assert lines[1] == "t,x,y,kstar"
    times = {int(l.split(",")[0]) for l in lines[2:]}
    assert times == set(range(31))  # both endpoints sampled
    assert len(lines) - 2 == 31 * 30  # every vehicle at every instant
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "command", "config_path", "config_sha256", "inputs", "seeds", "out_dir",
        "python", "numpy",
    }
    assert manifest["command"] == "export"
    assert manifest["seeds"] == {"base": 3}
    assert list(manifest["inputs"]) == ["trajectories"]
    assert manifest["numpy"] == np.__version__


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("sampling_period_s = 1", "sampling_period_s = 0",
         "duration and sampling period must be positive"),
        ("sampling_period_s = 1", "sampling_period_s = 7",
         "duration_s must be divisible by sampling_period_s"),
    ],
    ids=["period-0", "period-not-dividing"],
)
def test_export_bad_sampling_period_exit_1_before_field(
    tmp_path, fleet_csv, capsys, monkeypatch, old, new, message
):
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before the sampling period was checked")

    monkeypatch.setattr(cli, "make_clearsky_field", no_field)
    text = EXPORT_CFG.format(traj=fleet_csv, extra="")
    assert old in text
    cfg = _write_config(tmp_path, text.replace(old, new))
    out = tmp_path / "o"
    assert main(["export", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["fleet-too-short", "mask-short-of-bounds"])
def test_export_bad_scenario_exit_1_before_field(tmp_path, fleet_csv, capsys, monkeypatch, case):
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before the scenario was checked")

    monkeypatch.setattr(cli, "make_clearsky_field", no_field)
    text = EXPORT_CFG.format(traj=fleet_csv, extra="")
    if case == "fleet-too-short":
        text = text.replace("duration_s = 30", "duration_s = 500")
        message = "dataset covers 60 s but the transit needs 500 s"
    else:  # a 200 m raster under 300 m bounds
        small = ShadowMask(mask=np.zeros((20, 20), dtype=bool), origin=(0.0, 0.0), pixel_size_m=10.0)
        write_shadow_mask(small, tmp_path / "small.pgm")
        text += f"mask = {tmp_path / 'small.pgm'}\n"
        message = "shadow mask does not cover the observation bounds"
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["export", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "flag"])
def test_export_negative_seed_exit_1_before_field(tmp_path, fleet_csv, capsys, monkeypatch, where):
    def no_field(*args, **kwargs):
        raise AssertionError("the field was built before the seed was checked")

    monkeypatch.setattr(cli, "make_clearsky_field", no_field)
    text = EXPORT_CFG.format(traj=fleet_csv, extra="")
    flag = []
    if where == "config":
        text = text.replace("seed = 3", "seed = -1")
    else:
        flag = ["--seed", "-1"]
    out = tmp_path / "o"
    assert main(["export", "--config", str(_write_config(tmp_path, text)), "--out", str(out), *flag]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_export_all_shadowed_mask_gives_header_only(tmp_path, fleet_csv):
    write_shadow_mask(
        ShadowMask(mask=np.ones((30, 30), dtype=bool), origin=(0.0, 0.0), pixel_size_m=10.0),
        tmp_path / "dark.pgm",
    )
    cfg = _write_config(
        tmp_path, EXPORT_CFG.format(traj=fleet_csv, extra=f"mask = {tmp_path / 'dark.pgm'}")
    )
    out = tmp_path / "out"
    assert main(["export", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "series_000.csv").read_text().splitlines()
    assert len(lines) == 2  # JSON header + column header, zero sensor rows


def test_export_mask_reduces_rows(tmp_path, fleet_csv):
    # mask shadowing the west half of the area
    shadowed = np.zeros((30, 30), dtype=bool)
    shadowed[:, :15] = True
    write_shadow_mask(
        ShadowMask(mask=shadowed, origin=(0.0, 0.0), pixel_size_m=10.0),
        tmp_path / "mask.pgm",
    )
    cfg_plain = _write_config(
        tmp_path, EXPORT_CFG.format(traj=fleet_csv, extra=""), name="plain.cfg"
    )
    cfg_mask = _write_config(
        tmp_path,
        EXPORT_CFG.format(traj=fleet_csv, extra=f"mask = {tmp_path / 'mask.pgm'}"),
        name="masked.cfg",
    )
    out_plain, out_mask = tmp_path / "p", tmp_path / "m"
    assert main(["export", "--config", str(cfg_plain), "--out", str(out_plain)]) == 0
    assert main(["export", "--config", str(cfg_mask), "--out", str(out_mask)]) == 0
    n_plain = len((out_plain / "series_000.csv").read_text().splitlines())
    n_mask = len((out_mask / "series_000.csv").read_text().splitlines())
    assert n_mask < n_plain


@pytest.mark.parametrize("command", ["genfield", "export"])
def test_jobs_rejected_outside_campaign(tmp_path, capsys, command):
    # only campaign runs simulations in parallel; elsewhere --jobs is an error
    with pytest.raises(SystemExit):
        main([command, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path), "--jobs", "2"])
    assert "--jobs" in capsys.readouterr().err
