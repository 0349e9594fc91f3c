"""Golden outputs: exact bytes of a tiny export and a tiny campaign.

The expected lines were recorded from the library before sensor samples
became arrays; they hold any change of representation to byte identity.
"""
import numpy as np

from cloudmotion.evaluation import CampaignConfig, run_campaign, write_scatter_csvs
from cloudmotion.fleet import ShadowMask
from cloudmotion.fractal_field import auto_pixel_size, make_clearsky_field, required_field_side
from cloudmotion.geometry import Rect
from cloudmotion.synth import random_walk_fleet
from cloudmotion.transit import SPEED_MAX_MPS, TransitConfig, draw_truth, export_series, run_transit

BOUNDS = Rect(0.0, 0.0, 200.0, 300.0)


def _field(duration_s):
    side = 256
    required = required_field_side(duration_s, SPEED_MAX_MPS, BOUNDS.diagonal)
    return make_clearsky_field(side, 1.5, seed=9, pixel_size_m=auto_pixel_size(side, required))


def _mask():
    shadowed = np.zeros((30, 20), dtype=bool)
    shadowed[10:20, 5:12] = True  # x in [50, 120), y in [100, 200)
    return ShadowMask(mask=shadowed, origin=(0.0, 0.0), pixel_size_m=10.0)


EXPORT_LINES = """\
# {"duration_s": 5, "sampling_period_s": 1, "seed": 4, "truth": {"direction_deg": 184.07791901317017, "speed_mps": 28.348627061598663}}
t,x,y,kstar
0,17.130,28.239,1.200000
0,47.362,129.938,1.200000
0,160.255,143.715,0.181412
0,116.432,47.922,1.200000
1,7.986,28.892,1.200000
1,164.652,131.637,0.090000
1,115.884,32.456,1.200000
2,1.153,29.623,1.200000
2,166.685,118.944,0.090000
2,118.058,17.134,1.147765
3,10.226,30.935,1.200000
3,160.336,107.768,0.111765
3,121.662,2.085,1.086824
4,19.155,33.013,1.200000
4,157.691,95.189,0.142235
4,126.777,12.521,0.747294
5,28.294,32.285,1.200000
5,154.646,82.701,0.194471
5,135.138,25.543,0.355529
"""

SCATTER_FILES = {
    "scatter_d10_t5_pr0.5.csv": """\
sim,truth_speed,truth_dir,est_speed,est_dir,valid_event,capped
0,3.483826,85.251782,5.373404,60.264773,0,0
1,28.348627,184.077919,35.440103,196.389608,0,0
""",
    "scatter_d10_t5_pr1.csv": """\
sim,truth_speed,truth_dir,est_speed,est_dir,valid_event,capped
0,3.483826,85.251782,4.851000,74.020948,0,0
1,28.348627,184.077919,30.844106,186.204799,1,0
""",
}


def test_export_series_golden_lines(tmp_path):
    # 4 vehicles; one drives into the shadowed block after t = 0
    ds = random_walk_fleet(4, BOUNDS, 5, seed=3)
    cfg = TransitConfig(duration_s=5, sampling_period_s=1, seed=4)
    series = run_transit(_field(5), ds, _mask(), draw_truth(4), cfg)
    path = tmp_path / "series.csv"
    export_series(series, cfg, path)
    assert path.read_text() == EXPORT_LINES


def test_campaign_scatter_golden_rows(tmp_path):
    cfg = CampaignConfig(
        field=_field(60),
        dataset=random_walk_fleet(20, BOUNDS, 60, seed=8),
        bounds=BOUNDS,
        mask=_mask(),
        n_simulations=2,
        dmin_list=(10.0,),
        timestep_list=(5,),
        pr_list=(0.5, 1.0),
        base_seed=3,
        duration_s=60,
        min_variability_s=10,
    )
    written = write_scatter_csvs(run_campaign(cfg), tmp_path)
    assert {p.name: p.read_text() for p in written} == SCATTER_FILES
