import hashlib
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cloudmotion import fractal_field
from cloudmotion.fractal_field import (
    _LEVEL_KSTAR,
    DegenerateSurfaceError,
    FieldSizeError,
    _cloud_index_rows,
    _map_rows,
    _median,
    _median_threshold,
    cloud_to_clearsky,
    generate_fractal,
    kstar_to_levels,
    levels_to_kstar,
    make_clearsky_field,
    required_field_side,
)
from helpers import field_kstar

QSTEP = (1.2 - 0.09) / 255.0


# ------------------------------------------- float oracle of the pipeline
#
# make_clearsky_field keeps only 8-bit levels; these steps keep every
# float raster between them, so tests can check each step on its own.

@dataclass(frozen=True)
class CloudIndexField:
    """Cloud-index raster n in [-0.2, 1.2]; -0.2 fully clear, 1.2 fully cloudy."""

    n: np.ndarray
    side_px: int
    pixel_size_m: float


@dataclass(frozen=True)
class FloatClearSkyField:
    """float32 k* raster in [0.09, 1.2] with world-space pixel size."""

    kstar: np.ndarray
    side_px: int
    pixel_size_m: float


def to_cloud_index(surface, transition_halfwidth=0.15, pixel_size_m=1.0):
    """Threshold a surface at its median with a linear transition band."""
    t = _median_threshold(surface, transition_halfwidth)
    n = _map_rows(
        surface,
        lambda v: _cloud_index_rows(v, t, transition_halfwidth),
        np.empty(surface.shape, np.float32),
    )
    return CloudIndexField(n=n, side_px=surface.shape[0], pixel_size_m=pixel_size_m)


def clearsky_field(cloud):
    """Apply the cloud-index -> clear-sky-index map to a whole raster."""
    kstar = _map_rows(
        cloud.n,
        lambda n: cloud_to_clearsky(n).astype(np.float32),
        np.empty(cloud.n.shape, np.float32),
    )
    return FloatClearSkyField(kstar=kstar, side_px=cloud.side_px, pixel_size_m=cloud.pixel_size_m)


def quantize_8bit(field):
    """Round-trip k* through 256 linear levels; idempotent, error <= half a step."""
    kstar = _map_rows(
        field.kstar,
        lambda k: _LEVEL_KSTAR[kstar_to_levels(k)],
        np.empty(field.kstar.shape, np.float32),
    )
    return FloatClearSkyField(kstar=kstar, side_px=field.side_px, pixel_size_m=field.pixel_size_m)


# ---------------------------------------------------------------- generator

def test_generate_minimal_size():
    s = generate_fractal(2, 1.5, seed=3)
    assert s.shape == (2, 2)
    assert np.all(np.isfinite(s))


@pytest.mark.parametrize("side", [2, 3, 16, 17, 257])
def test_generate_admissible_sides(side):
    s = generate_fractal(side, 1.5, seed=1)
    assert s.shape == (side, side)


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
    assert np.array_equal(a, b)
    c = generate_fractal(257, 1.5, seed=8)
    assert not np.array_equal(a, c)


def test_power_of_two_side_is_crop_of_plus_one():
    full = generate_fractal(129, 1.5, seed=5)
    cropped = generate_fractal(128, 1.5, seed=5)
    assert np.array_equal(cropped, full[:128, :128])


@pytest.mark.slow
def test_generate_full_size_reproducible():
    # 16384 px production-size field; digest pins bit-for-bit reproducibility
    # across runs and processes.
    s = generate_fractal(16384, 1.5, seed=42)
    assert s.shape == (16384, 16384)
    h = hashlib.sha256()
    for r0 in range(0, 16384, 256):
        h.update(s[r0 : r0 + 256].tobytes())
    digest = h.hexdigest()
    assert digest == "269c52881b6cbfe2063dc15ba871056d6fad6e7e0e4fcb0cd9209dfa4282094a"


def test_generate_peak_memory():
    # the (n+1)^2 grid plus one displacement buffer a quarter of its size;
    # the surface is a view of the grid, not a cropped copy
    side = 1024
    generate_fractal(4, 1.5, seed=7)  # numpy's first-call allocations are not the generator's
    tracemalloc.start()
    try:
        generate_fractal(side, 1.5, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * side * side * 4


def test_rougher_dimension_changes_surface():
    smooth = generate_fractal(65, 1.2, seed=9)
    rough = generate_fractal(65, 1.8, seed=9)
    assert not np.array_equal(smooth, rough)


# ------------------------------------------------------------- cloud index

def _ramp_surface(side=16):
    return np.linspace(0.0, 1.0, side * side, dtype=np.float32).reshape(side, side)


def test_cloud_index_midpoint_and_endpoints():
    # surface with median exactly 0.5 and the transition endpoints as pixel
    # values; h and the values are exact binary fractions so the endpoint
    # saturation is bit-exact
    h = 0.25
    vals = np.array(
        [[0.5 - h, 0.5 - h / 2, 0.5], [0.5, 0.5 + h / 2, 0.5 + h]], dtype=np.float32
    )
    surf = np.pad(vals, ((0, 1), (0, 0)), mode="edge")
    t = float(np.median(surf))
    assert t == pytest.approx(0.5)
    cloud = to_cloud_index(surf, h)
    v, n = surf, cloud.n
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
    flat = np.ones((8, 8), dtype=np.float32)
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
    levels = kstar_to_levels(np.array([[0.09, 1.2]], dtype=np.float32))
    assert levels.tolist() == [[0, 255]]
    back = levels_to_kstar(levels)
    assert back[0, 0] == pytest.approx(0.09, abs=1e-7)
    assert back[0, 1] == pytest.approx(1.2, abs=1e-7)


def test_quantize_error_bound_at_midpoint():
    field = FloatClearSkyField(np.full((2, 2), 0.645, dtype=np.float32), 2, 1.0)
    q = quantize_8bit(field)
    assert np.all(np.abs(q.kstar - 0.645) <= QSTEP / 2 + 1e-7)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_quantize_idempotent(seed):
    rng = np.random.default_rng(seed)
    kstar = rng.uniform(0.09, 1.2, (6, 6)).astype(np.float32)
    field = FloatClearSkyField(kstar, 6, 1.0)
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
    kstar = field_kstar(make_clearsky_field(128, 1.5, seed=21))
    assert kstar.min() >= 0.09 - 1e-7
    assert kstar.max() <= 1.2 + 1e-7


def test_pipeline_deterministic():
    a = make_clearsky_field(64, 1.5, seed=3)
    b = make_clearsky_field(64, 1.5, seed=3)
    assert np.array_equal(a.levels, b.levels)


def test_clearsky_field_wraps_cloud_index():
    cloud = to_cloud_index(_ramp_surface(16), 0.15)
    field = clearsky_field(cloud)
    assert field.kstar.shape == (16, 16)
    assert field.pixel_size_m == cloud.pixel_size_m


# Digests of the float32 k* raster of the pipeline for (side, 1.5, seed),
# 8-bit quantised (True: make_clearsky_field's levels as k*) or not (False:
# the float oracle above), recorded from the whole-raster pipeline before
# it ran in row blocks.  129 and 1025 end in a partial block of rows, 256
# and 2048 in full ones.
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
    if quantize:
        field = make_clearsky_field(side, 1.5, seed, pixel_size_m=2.0)
        assert field.levels.dtype == np.uint8
        kstar = field_kstar(field)
    else:
        kstar = clearsky_field(to_cloud_index(generate_fractal(side, 1.5, seed), 0.15, 2.0)).kstar
    assert kstar.dtype == np.float32 and kstar.shape == (side, side)
    digest = hashlib.sha256(kstar.tobytes()).hexdigest()
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
    assert np.array_equal(quantize_8bit(raw).kstar, field_kstar(fused))
    assert np.array_equal(kstar_to_levels(raw.kstar), fused.levels)
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


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("key", ["transition_halfwidth", "pixel_size_m"])
def test_pipeline_rejects_non_positive_or_non_finite(key, bad):
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        make_clearsky_field(16, 1.5, seed=1, **{key: bad})


def test_pipeline_peak_memory():
    # float64 temporaries the size of the raster would take 2x its float32
    # bytes each; the peak is the fractal grid plus the median's per-block
    # temporaries, 1.75x at this size (the band-only level map stays below it)
    side = 1024
    tracemalloc.start()
    try:
        make_clearsky_field(side, 1.5, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * side * side * 4


# ------------------------------------------------------------ median

_median_values = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    # ties, both zeros and the smallest subnormals, which share the zeros' bins
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-149, -(2.0**-149)]),
)


def _assert_median_equal(v):
    got, want = _median(v), np.median(v)
    assert got.dtype == want.dtype == np.float32
    assert got == want  # == so that -0.0 and +0.0 agree, as np.median may give either


@given(
    arrays(np.float32, st.tuples(st.integers(1, 600), st.integers(1, 3)), elements=_median_values)
)
@settings(max_examples=60, deadline=None)
@example(np.array([[-0.0], [0.0]], dtype=np.float32))
@example(np.array([[0.0, -0.0, -0.0, 0.0]], dtype=np.float32))
@example(np.array([[1.0, 1.0, 1.0, 2.0]], dtype=np.float32))
@example(np.array([[-3.0, -2.0, -1.0]], dtype=np.float32))
@example(np.array([[0.25, 0.5, 0.75, 3.0e38]], dtype=np.float32))
def test_median_equals_numpy(v):
    # up to 600 rows crosses the histogram's row blocks; odd and even counts
    _assert_median_equal(v)


@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.integers(0, 4), st.booleans())
@settings(max_examples=40, deadline=None)
def test_median_of_crops_equals_numpy(k, seed, outlier_at, shift):
    # non-contiguous crops of a (2^k + 1)^2 array, as generate_fractal returns
    side = 1 << k
    grid = np.random.default_rng(seed).standard_normal((side + 1, side + 1), dtype=np.float32)
    if shift:
        grid -= np.float32(0.3)  # move the median off zero
    grid[outlier_at % side, 0] = np.float32(1e30)  # a single outlier
    _assert_median_equal(grid[:side, :side])
    _assert_median_equal(grid[1:, :side])


@pytest.mark.parametrize("side,seed", [(64, 1), (129, 3), (1024, 7)])
def test_levels_same_for_either_median(side, seed):
    surf = generate_fractal(side, 1.5, seed)
    assert _median_threshold(surf, 0.15) == np.median(surf)
    n = _cloud_index_rows(surf, np.median(surf), 0.15)
    want = kstar_to_levels(cloud_to_clearsky(n).astype(np.float32))
    assert make_clearsky_field(side, 1.5, seed).levels.tobytes() == want.tobytes()


# ------------------------------------------------- band-only level map
#
# make_clearsky_field runs the float steps only inside the transition
# band and gives every other pixel a plateau level; these hand-built
# surfaces put values on and next to the band edges, on the branch points
# of cloud_to_clearsky, and in bands that are empty or cover everything.

def _ulps(v, k):
    """The 2k + 1 float32 values from k ulps below a positive v to k above it."""
    bits = np.float32(v).reshape(1).view(np.int32)
    return (bits + np.arange(-k, k + 1, dtype=np.int32)).view(np.float32)


def _around_half(specials, side=16):
    """side x side float32 surface of the specials, padded with 0.5 so its median is 0.5."""
    vals = np.full(side * side, 0.5, dtype=np.float32)
    vals[: len(specials)] = specials
    return vals.reshape(side, side)


def _band_levels(monkeypatch, values, halfwidth):
    """make_clearsky_field's levels for a hand-built surface, checked against the float oracle."""
    monkeypatch.setattr(
        fractal_field, "_diamond_square", lambda *args: (values, np.empty(values.size, np.uint8))
    )
    got = make_clearsky_field(values.shape[0], 1.5, 0, transition_halfwidth=halfwidth).levels
    want = kstar_to_levels(clearsky_field(to_cloud_index(values, halfwidth)).kstar)
    assert got.dtype == want.dtype == np.uint8
    assert np.array_equal(got, want)
    return got


def test_band_levels_at_band_edges(monkeypatch):
    h = 0.15
    lo, hi = np.float32(0.5) - h, np.float32(0.5) + h  # the float32 edges the pipeline uses
    specials = np.concatenate([_ulps(lo, 1), _ulps(hi, 1)])
    values = _around_half(specials)
    assert _median_threshold(values, h) == np.float32(0.5)
    got = _band_levels(monkeypatch, values, h).ravel()
    assert got[:2].tolist() == [255, 255]  # at or below t - h: fully clear
    assert got[4:6].tolist() == [0, 0]  # at or above t + h: fully cloudy


def test_band_levels_at_clearsky_branch_points(monkeypatch):
    h = 0.15
    # surface values whose cloud index is 0.8 and 1.05, +-8 ulps each
    v08 = _ulps(0.5 - h + 2 * h * 1.0 / 1.4, 8)
    v105 = _ulps(0.5 - h + 2 * h * 1.25 / 1.4, 8)
    got = _band_levels(monkeypatch, _around_half(np.concatenate([v08, v105])), h).ravel()
    # the ~5e-3 k* jump at n = 0.8 lifts the level by one as v rises past it
    assert np.any(np.diff(got[:17].astype(int)) > 0)


@pytest.mark.parametrize("halfwidth,in_band", [(1e-12, 0), (1e-7, 1), (50.0, 33 * 33)])
def test_band_levels_empty_and_full_band(monkeypatch, halfwidth, in_band):
    # 1e-12: float32 rounds both band edges to t, so the band is empty and
    # the median pixel is cloudy; 1e-7: only the median pixel is inside;
    # 50: the band covers every pixel
    values = np.random.default_rng(3).standard_normal((33, 33), dtype=np.float32)
    t = _median_threshold(values, halfwidth)
    assert (t - halfwidth == t + halfwidth) == (halfwidth == 1e-12)
    got = _band_levels(monkeypatch, values, halfwidth)
    assert np.count_nonzero(~np.isin(got, [0, 255])) == in_band


def test_band_levels_partial_row_block(monkeypatch):
    # 200 rows: one full 128-row block and a partial one; NaNs take the
    # float steps, whose default branch gives level 0
    values = np.random.default_rng(5).standard_normal((200, 200), dtype=np.float32)
    values[[3, 150], [7, 190]] = np.nan
    got = _band_levels(monkeypatch, values, 0.15)
    assert got[3, 7] == got[150, 190] == 0
    assert np.count_nonzero(~np.isin(got, [0, 255])) > 1000
