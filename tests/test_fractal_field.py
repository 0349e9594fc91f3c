import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudmotion.fractal_field import (
    ClearSkyField,
    DegenerateSurfaceError,
    FieldSizeError,
    FractalSurface,
    cloud_to_clearsky,
    clearsky_field,
    generate_fractal,
    kstar_to_levels,
    levels_to_kstar,
    make_clearsky_field,
    quantize_8bit,
    required_field_side,
    to_cloud_index,
)

QSTEP = (1.2 - 0.09) / 255.0


# ---------------------------------------------------------------- generator

def test_generate_minimal_size():
    s = generate_fractal(2, 1.5, seed=3)
    assert s.values.shape == (2, 2)
    assert np.all(np.isfinite(s.values))


@pytest.mark.parametrize("side", [2, 3, 16, 17, 257])
def test_generate_admissible_sides(side):
    s = generate_fractal(side, 1.5, seed=1)
    assert s.values.shape == (side, side)


@pytest.mark.parametrize("side", [0, 1, 7, 100, 500])
def test_generate_rejects_bad_sides(side):
    with pytest.raises(FieldSizeError):
        generate_fractal(side, 1.5, seed=1)


@pytest.mark.parametrize("dim", [0.5, 1.0, 2.0, 2.5])
def test_generate_rejects_bad_dimension(dim):
    with pytest.raises(ValueError):
        generate_fractal(64, dim, seed=1)


def test_generate_deterministic_same_seed():
    a = generate_fractal(257, 1.5, seed=7)
    b = generate_fractal(257, 1.5, seed=7)
    assert np.array_equal(a.values, b.values)
    c = generate_fractal(257, 1.5, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_power_of_two_side_is_crop_of_plus_one():
    full = generate_fractal(129, 1.5, seed=5)
    cropped = generate_fractal(128, 1.5, seed=5)
    assert np.array_equal(cropped.values, full.values[:128, :128])


@pytest.mark.slow
def test_generate_full_size_reproducible():
    # 16384 px production-size field; digest pins bit-for-bit reproducibility
    # across runs and processes.
    s = generate_fractal(16384, 1.5, seed=42)
    assert s.values.shape == (16384, 16384)
    digest = hashlib.sha256(s.values.tobytes()).hexdigest()
    assert digest == "269c52881b6cbfe2063dc15ba871056d6fad6e7e0e4fcb0cd9209dfa4282094a"


def test_rougher_dimension_changes_surface():
    smooth = generate_fractal(65, 1.2, seed=9)
    rough = generate_fractal(65, 1.8, seed=9)
    assert not np.array_equal(smooth.values, rough.values)


# ------------------------------------------------------------- cloud index

def _ramp_surface(side=16):
    vals = np.linspace(0.0, 1.0, side * side, dtype=np.float32).reshape(side, side)
    return FractalSurface(values=vals, side_px=side, fractal_dimension=1.5)


def test_cloud_index_midpoint_and_endpoints():
    # surface with median exactly 0.5 and the transition endpoints as pixel
    # values; h and the values are exact binary fractions so the endpoint
    # saturation is bit-exact
    h = 0.25
    vals = np.array(
        [[0.5 - h, 0.5 - h / 2, 0.5], [0.5, 0.5 + h / 2, 0.5 + h]], dtype=np.float32
    )
    surf = FractalSurface(np.pad(vals, ((0, 1), (0, 0)), mode="edge"), 3, 1.5)
    t = float(np.median(surf.values))
    assert t == pytest.approx(0.5)
    cloud = to_cloud_index(surf, h)
    v, n = surf.values, cloud.n
    assert np.allclose(n[v == np.float32(0.5)], 0.5, atol=1e-6)
    assert np.all(n[v <= t - h] == np.float32(-0.2))
    assert np.all(n[v >= t + h] == np.float32(1.2))


def test_cloud_index_ramp_half_below_midpoint():
    # uniform ramp: the median splits it, so exactly half the pixels sit
    # below a cloud index of 0.5
    cloud = to_cloud_index(_ramp_surface(16), 0.15)
    assert int((cloud.n < 0.5).sum()) == 16 * 16 // 2


def test_cloud_index_monotone_in_value():
    surf = _ramp_surface(16)
    cloud = to_cloud_index(surf, 0.15)
    flat = cloud.n.ravel()  # ramp is sorted, so mapped values must be too
    assert np.all(np.diff(flat) >= 0)


def test_cloud_index_degenerate_surface():
    flat = FractalSurface(np.ones((8, 8), dtype=np.float32), 8, 1.5)
    with pytest.raises(DegenerateSurfaceError):
        to_cloud_index(flat, 0.15)


def test_cloud_index_rejects_bad_halfwidth():
    with pytest.raises(ValueError):
        to_cloud_index(_ramp_surface(), 0.0)


def test_threshold_balance():
    s = generate_fractal(65, 1.5, seed=13)
    cloud = to_cloud_index(s, 0.15)
    n_px = 65 * 65
    ties = int((cloud.n == np.float32(0.5)).sum())
    assert int((cloud.n < 0.5).sum()) <= math.ceil(n_px / 2) + ties
    assert int((cloud.n > 0.5).sum()) <= math.ceil(n_px / 2) + ties


# ----------------------------------------------------- clear-sky index map

def test_clearsky_branch_values():
    assert cloud_to_clearsky(-0.2) == pytest.approx(1.2, abs=1e-12)
    assert cloud_to_clearsky(0.0) == pytest.approx(1.0, abs=1e-12)
    assert cloud_to_clearsky(0.8) == pytest.approx(0.2, abs=1e-12)
    assert cloud_to_clearsky(1.05) == pytest.approx(0.0949425, abs=1e-6)
    assert cloud_to_clearsky(1.2) == 0.09
    assert cloud_to_clearsky(-3.0) == 1.2


def test_clearsky_branch_gap_at_0p8():
    linear = 1.0 - 0.8
    quad = 1.1661 - 1.7814 * 0.8 + 0.7250 * 0.8**2
    assert quad - linear == pytest.approx(4.98e-3, abs=1e-6)
    # the implemented function takes the linear branch at exactly 0.8
    assert cloud_to_clearsky(0.8) == pytest.approx(linear, abs=1e-12)


def test_clearsky_accepts_arrays():
    n = np.array([-0.3, -0.2, 0.0, 0.5, 0.8, 1.0, 1.05, 1.1])
    k = cloud_to_clearsky(n)
    assert k.shape == n.shape
    assert k[0] == 1.2 and k[-1] == 0.09


@given(st.floats(min_value=-1.0, max_value=2.0), st.floats(min_value=-1.0, max_value=2.0))
def test_clearsky_monotone_up_to_branch_gap(a, b):
    lo, hi = min(a, b), max(a, b)
    # non-increasing overall, except the documented <= 5e-3 jump at 0.8
    assert cloud_to_clearsky(lo) >= cloud_to_clearsky(hi) - 5.0e-3


@given(st.floats(min_value=-1.0, max_value=2.0))
def test_clearsky_range(n):
    assert 0.09 <= cloud_to_clearsky(n) <= 1.2


# ------------------------------------------------------------ quantization

def test_quantize_endpoints_exact():
    field = ClearSkyField(np.array([[0.09, 1.2]], dtype=np.float32), 1, 1.0)
    # not square, so bypass the dataclass and test the level helpers directly
    levels = kstar_to_levels(field.kstar)
    assert levels.tolist() == [[0, 255]]
    back = levels_to_kstar(levels)
    assert back[0, 0] == pytest.approx(0.09, abs=1e-7)
    assert back[0, 1] == pytest.approx(1.2, abs=1e-7)


def test_quantize_error_bound_at_midpoint():
    field = ClearSkyField(np.full((2, 2), 0.645, dtype=np.float32), 2, 1.0)
    q = quantize_8bit(field)
    assert np.all(np.abs(q.kstar - 0.645) <= QSTEP / 2 + 1e-7)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_quantize_idempotent(seed):
    rng = np.random.default_rng(seed)
    kstar = rng.uniform(0.09, 1.2, (6, 6)).astype(np.float32)
    field = ClearSkyField(kstar, 6, 1.0)
    once = quantize_8bit(field)
    twice = quantize_8bit(once)
    assert np.array_equal(once.kstar, twice.kstar)
    assert np.all(np.abs(once.kstar - kstar) <= QSTEP / 2 + 1e-6)


# ------------------------------------------------------------- field sizing

def test_required_field_side_production_scale():
    need = required_field_side(300, 30, math.sqrt(2) * 2000)
    assert need == pytest.approx(11828.4, abs=0.1)
    assert need <= 16384  # admissible power-of-two side at 1 m/px


def test_required_field_side_degenerate_cases():
    assert required_field_side(0, 25, 700.0) == 700.0
    assert required_field_side(100, 10, 0.0) == 1000.0
    with pytest.raises(ValueError):
        required_field_side(-1, 10, 10)


# ------------------------------------------------------------ full pipeline

def test_pipeline_range_invariant():
    field = make_clearsky_field(128, 1.5, seed=21)
    assert field.kstar.min() >= 0.09 - 1e-7
    assert field.kstar.max() <= 1.2 + 1e-7


def test_pipeline_deterministic():
    a = make_clearsky_field(64, 1.5, seed=3)
    b = make_clearsky_field(64, 1.5, seed=3)
    assert np.array_equal(a.kstar, b.kstar)


def test_clearsky_field_wraps_cloud_index():
    cloud = to_cloud_index(_ramp_surface(16), 0.15)
    field = clearsky_field(cloud)
    assert field.kstar.shape == (16, 16)
    assert field.pixel_size_m == cloud.pixel_size_m


# Digests of make_clearsky_field(side, 1.5, seed, pixel_size_m=2.0).kstar,
# recorded from the whole-raster pipeline before it ran in row blocks.
# 129 and 1025 end in a partial block of rows, 256 and 2048 in full ones.
PIPELINE_DIGESTS = {
    (129, 3, True): "0dd434d0ecfab5deee23a6844be405515f66955f95692a9cf341fadd1b8ed2a6",
    (129, 3, False): "b9f96274567ba2af7c9490efb070ed2cd8c5ca132f08baada73b726713da7d62",
    (256, 11, True): "48ef0a9f6fd44e5b347a6a5f6a332c1f3b2cd0e82ab00230fa23b5507cc9b2c7",
    (256, 11, False): "39cff1f63a75c2360fccaed0468257f2b4852e1a5c8540da30c1b9fe505209bf",
    (1025, 5, True): "102fd4cda61b3a8db5c2541e3e21df458797257c4ce7c985b13ade1296839282",
    (1025, 5, False): "461b1f35b4a64fddf06c705508d72f1e5abcb8e8f6b04122571c68709d18acad",
    (2048, 42, True): "436d09bdca32d17f76b180920acea39babf36c665b60492895a45fbcef6c240c",
    (2048, 42, False): "3f7421315b94872bcb51772ec22213bcda88797e7914ff57ba962001fbe24d41",
}


@pytest.mark.parametrize("side,seed,quantize", sorted(PIPELINE_DIGESTS))
def test_pipeline_digest_pinned(side, seed, quantize):
    field = make_clearsky_field(side, 1.5, seed, pixel_size_m=2.0, quantize=quantize)
    assert field.kstar.dtype == np.float32 and field.kstar.shape == (side, side)
    digest = hashlib.sha256(field.kstar.tobytes()).hexdigest()
    assert digest == PIPELINE_DIGESTS[side, seed, quantize]


@pytest.mark.parametrize("side", [129, 257])
@pytest.mark.parametrize("halfwidth", [0.05, 0.15])
def test_pipeline_equals_public_steps(side, halfwidth):
    surf = generate_fractal(side, 1.5, seed=side)
    cloud = to_cloud_index(surf, halfwidth, pixel_size_m=3.0)
    raw = clearsky_field(cloud)
    fused = make_clearsky_field(
        side, 1.5, seed=side, transition_halfwidth=halfwidth, pixel_size_m=3.0
    )
    fused_raw = make_clearsky_field(
        side, 1.5, seed=side, transition_halfwidth=halfwidth, pixel_size_m=3.0, quantize=False
    )
    assert np.array_equal(quantize_8bit(raw).kstar, fused.kstar)
    assert np.array_equal(raw.kstar, fused_raw.kstar)
    assert fused.pixel_size_m == 3.0 and fused.side_px == side
    # each blocked step equals its expression on the whole raster
    assert np.array_equal(raw.kstar, cloud_to_clearsky(cloud.n).astype(np.float32))
    assert np.array_equal(quantize_8bit(raw).kstar, levels_to_kstar(kstar_to_levels(raw.kstar)))


def test_pipeline_validation_order():
    with pytest.raises(FieldSizeError):
        make_clearsky_field(100, 1.5, seed=1, transition_halfwidth=0.0)
    with pytest.raises(ValueError, match="fractal_dimension"):
        make_clearsky_field(64, 2.5, seed=1, transition_halfwidth=0.0)
    with pytest.raises(ValueError, match="transition_halfwidth"):
        make_clearsky_field(64, 1.5, seed=1, transition_halfwidth=-1.0)


def test_pipeline_peak_memory():
    # float64 temporaries the size of the raster would take 2x its float32
    # output each; row blocks keep the peak to the surface, the median's
    # copy of it and the output, plus one block
    side = 1024
    tracemalloc.start()
    try:
        make_clearsky_field(side, 1.5, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * side * side * 4
