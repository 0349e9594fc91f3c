"""Cloud-shadow motion estimation from mobile irradiance sensor networks.

Conventions used throughout: coordinates are meters in a local planar
frame, x east and y north; directions are degrees clockwise from north
(0 = moving north, 90 = moving east); times are integer seconds.
"""
from .cmae import (
    CmaeSurface,
    CmvEstimate,
    accumulate_cmae,
    displacement_candidates,
    estimate_cmv,
    search_cmv,
)
from .evaluation import (
    CampaignConfig,
    CampaignResult,
    direction_error,
    rmse,
    run_campaign,
)
from .fleet import (
    SensorSnapshot,
    ShadowMask,
    TrajectoryDataset,
    load_shadow_mask,
    load_trajectories,
    subsample_by_penetration,
)
from .fractal_field import (
    ClearSkyField,
    cloud_to_clearsky,
    generate_fractal,
    make_clearsky_field,
    required_field_side,
)
from .geometry import Rect
from .gridding import GridSeries, GridSnapshot, GridSpec, grid_series, idw_interpolate
from .transit import (
    MeasurementSeries,
    MotionTruth,
    TransitConfig,
    draw_truth,
    is_valid_event,
    run_transit,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "ClearSkyField",
    "CmaeSurface",
    "CmvEstimate",
    "GridSeries",
    "GridSnapshot",
    "GridSpec",
    "MeasurementSeries",
    "MotionTruth",
    "Rect",
    "SensorSnapshot",
    "ShadowMask",
    "TrajectoryDataset",
    "TransitConfig",
    "accumulate_cmae",
    "cloud_to_clearsky",
    "direction_error",
    "displacement_candidates",
    "draw_truth",
    "estimate_cmv",
    "generate_fractal",
    "grid_series",
    "idw_interpolate",
    "is_valid_event",
    "load_shadow_mask",
    "load_trajectories",
    "make_clearsky_field",
    "required_field_side",
    "rmse",
    "run_campaign",
    "run_transit",
    "search_cmv",
    "subsample_by_penetration",
]
