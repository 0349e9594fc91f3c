import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cloudmotion.cmae as cmae_mod
from cloudmotion.cmae import (
    CmaeSurface,
    InsufficientPairsError,
    accumulate_cmae,
    displacement_candidates,
    estimate_cmv,
    search_cmv,
)
from cloudmotion.fleet import SensorSnapshot, ShadowMask, subsample_by_penetration
from cloudmotion.fractal_field import auto_pixel_size, make_clearsky_field, required_field_side
from cloudmotion.geometry import Rect
from cloudmotion.gridding import GridSnapshot, GridSpec, grid_series
from cloudmotion.synth import random_walk_fleet
from cloudmotion.transit import MotionTruth, TransitConfig, draw_truth, run_transit
from helpers import grid_block, series_from_snapshots, translation_grids


def _grid(values, t=0, valid=True):
    return GridSnapshot(t=t, values=np.asarray(values, dtype=np.float64), valid=valid)


# ------------------------------------------------- per-pair MAE oracle

class EmptyOverlapError(ValueError):
    """Displacement leaves no overlapping cells."""


class Displacement(NamedTuple):
    """Integer grid-cell shift per time step."""

    dx: int
    dy: int


def mae_for_displacement(a: GridSnapshot, b: GridSnapshot, d: Displacement) -> float:
    """Mean |a(cell) - b(cell + d)| over the N = (nx-|dx|)(ny-|dy|) overlap cells."""
    if not (a.valid and b.valid):
        raise ValueError("MAE needs two valid snapshots")
    ny, nx = a.values.shape
    if abs(d.dx) >= nx or abs(d.dy) >= ny:
        raise EmptyOverlapError(f"displacement {d} leaves no overlap on a {ny}x{nx} grid")
    ys, xs = slice(max(0, -d.dy), ny - max(0, d.dy)), slice(max(0, -d.dx), nx - max(0, d.dx))
    shifted = b.values[ys.start + d.dy : ys.stop + d.dy, xs.start + d.dx : xs.stop + d.dx]
    return float(np.abs(a.values[ys, xs] - shifted).mean())


# ---------------------------------------------------------- candidate set

def test_candidates_respect_speed_cap():
    cands = displacement_candidates(61, 91, dmin=10.0, timestep_s=10, v_cap=40.0)
    speeds = 10.0 * np.hypot(cands[:, 0], cands[:, 1]) / 10.0
    assert speeds.max() <= 40.0
    assert len(cands) > 5000  # a disk of radius 40 cells


def test_candidates_overlap_floor():
    # 10x10 grid: |dx| = 9 leaves 10 cells = 10% of 100 -> kept at exactly
    # the floor; |dx| = 9, |dy| = 1 leaves 9 -> dropped
    cands = displacement_candidates(10, 10, dmin=1.0, timestep_s=10, v_cap=40.0)
    as_set = {(dx, dy) for dx, dy in cands}
    assert (9, 0) in as_set
    assert (9, 1) not in as_set


def test_candidates_empty_when_cap_too_small():
    cands = displacement_candidates(10, 10, dmin=100.0, timestep_s=1, v_cap=40.0)
    assert len(cands) == 1  # only (0, 0) survives


# ------------------------------------------------------------------- MAE

def test_mae_identity_is_zero():
    a = _grid(np.random.default_rng(0).uniform(0.09, 1.2, (8, 8)))
    assert mae_for_displacement(a, a, Displacement(0, 0)) == 0.0


def test_mae_constant_offset():
    a = _grid(np.full((9, 7), 0.5))
    b = _grid(np.full((9, 7), 0.8))
    for d in (Displacement(0, 0), Displacement(2, -1), Displacement(-3, 2)):
        assert mae_for_displacement(a, b, d) == pytest.approx(0.3, rel=1e-12)
    # with a non-constant field the offset survives only at zero displacement
    rng = np.random.default_rng(1)
    base = rng.uniform(0.2, 0.8, (9, 7))
    assert mae_for_displacement(_grid(base), _grid(base + 0.3), Displacement(0, 0)) == (
        pytest.approx(0.3, rel=1e-12)
    )


def test_mae_step_field_hand_count():
    # vertical step between columns 3 and 4; b is a shifted one cell east
    ny, nx = 6, 8
    a_vals = np.zeros((ny, nx))
    a_vals[:, 4:] = 1.0
    b_vals = np.zeros((ny, nx))
    b_vals[:, 5:] = 1.0  # the step moved one cell east
    a, b = _grid(a_vals), _grid(b_vals)
    assert mae_for_displacement(a, b, Displacement(1, 0)) == 0.0
    # at zero displacement the fields differ in exactly one column
    expected = 1.0 * ny / (nx * ny)
    assert mae_for_displacement(a, b, Displacement(0, 0)) == pytest.approx(expected, rel=1e-12)


def test_mae_normalizes_by_overlap():
    rng = np.random.default_rng(2)
    a = _grid(rng.uniform(0.09, 1.2, (10, 10)))
    b = _grid(rng.uniform(0.09, 1.2, (10, 10)))
    d = Displacement(3, -2)
    sa = a.values[2:10, 0:7]
    sb = b.values[0:8, 3:10]
    assert mae_for_displacement(a, b, d) == pytest.approx(np.abs(sa - sb).mean(), rel=1e-12)


def test_mae_empty_overlap_raises():
    a = _grid(np.zeros((4, 4)))
    with pytest.raises(EmptyOverlapError):
        mae_for_displacement(a, a, Displacement(4, 0))


def test_mae_requires_valid_snapshots():
    a = _grid(np.zeros((4, 4)))
    bad = _grid(np.zeros((4, 4)), valid=False)
    with pytest.raises(ValueError):
        mae_for_displacement(a, bad, Displacement(0, 0))


# ------------------------------------------------------------ accumulation

def test_accumulate_single_pair_matches_mae():
    grids = translation_grids(seed=5, ny=20, nx=20, dx=1, dy=0, n_snaps=2, spacing_s=10)
    surface = accumulate_cmae(grids, timestep_s=10, dmin=10.0, v_cap=15.0)
    assert surface.pair_count == 1
    for (dx, dy), value in zip(surface.displacements, surface.cmae):
        ref = mae_for_displacement(grids[0], grids[1], Displacement(int(dx), int(dy)))
        assert value == pytest.approx(ref, rel=1e-5, abs=1e-9)


def test_accumulate_duplicated_pair_doubles_cmae():
    pair = translation_grids(seed=6, ny=15, nx=15, dx=1, dy=1, n_snaps=2, spacing_s=10)
    once = accumulate_cmae(pair, 10, 10.0, v_cap=15.0)
    # an invalid separator makes the same pair appear exactly twice
    g0, g1 = pair.values
    rep = grid_block([g0, g1, g0, g0, g1], valid=[True, True, False, True, True])
    twice = accumulate_cmae(rep, 10, 10.0, v_cap=15.0)
    assert once.pair_count == 1 and twice.pair_count == 2
    assert np.allclose(twice.cmae, 2.0 * once.cmae, rtol=1e-9, atol=1e-12)
    assert np.argmin(twice.cmae) == np.argmin(once.cmae)


def test_accumulate_skips_invalid_pairs_uniformly():
    grids = translation_grids(seed=7, ny=12, nx=12, dx=0, dy=1, n_snaps=4, spacing_s=10)
    grids = grid_block(grids.values, valid=[True, True, False, True])
    surface = accumulate_cmae(grids, 10, 10.0, v_cap=15.0)
    assert surface.pair_count == 1  # only (0, 1); (1,2) and (2,3) touch the invalid one


def test_accumulate_translation_argmin_at_truth():
    for dx, dy in ((2, 0), (0, -3), (1, 2), (-2, -1)):
        grids = translation_grids(seed=11, ny=25, nx=25, dx=dx, dy=dy, n_snaps=5, spacing_s=10)
        surface = accumulate_cmae(grids, 10, 5.0, v_cap=20.0)
        best = surface.displacements[int(np.argmin(surface.cmae))]
        assert (best[0], best[1]) == (dx, dy)
        assert surface.cmae.min() == 0.0


def test_accumulate_requires_usable_pairs():
    one = grid_block(np.zeros((1, 5, 5)))
    bad = grid_block(np.zeros((2, 5, 5)), valid=[False, False])
    for search in (accumulate_cmae, search_cmv):
        with pytest.raises(InsufficientPairsError):
            search(one, 10, 10.0)
        with pytest.raises(InsufficientPairsError):
            search(bad, 10, 10.0)


def test_accumulate_timestep_must_match_spacing():
    grids = translation_grids(seed=8, ny=10, nx=10, dx=1, dy=0, n_snaps=3, spacing_s=10)
    for search in (accumulate_cmae, search_cmv):
        for timestep in (15, 0, -10):
            with pytest.raises(ValueError):
                search(grids, timestep, 10.0)


# ------------------------------------------------------------ pruned search

def _assert_pruned_matches_exhaustive(grids, timestep_s, dmin, v_cap):
    """search_cmv equals the exhaustive estimate exactly; returns that estimate."""
    surface = accumulate_cmae(grids, timestep_s, dmin, v_cap=v_cap)
    exhaustive = estimate_cmv(surface, timestep_s, dmin)
    pruned = search_cmv(grids, timestep_s, dmin, v_cap=v_cap)
    assert pruned == exhaustive
    assert pruned.n_candidates == len(surface.cmae) == len(surface.displacements)
    return pruned


def _random_grids(seed, ny, nx, n_snaps, levels, invalid=()):
    """Uniform k* grids 10 s apart; levels > 0 quantises them (ties)."""
    rng = np.random.default_rng(seed)
    grids = []
    for k in range(n_snaps):
        values = rng.uniform(0.09, 1.2, (ny, nx))
        if levels:
            values = np.round(values * levels) / levels
        grids.append(values)
    return grid_block(grids, valid=[k not in invalid for k in range(n_snaps)])


def _assert_pruned_matches_or_both_raise(grids, v_cap):
    try:
        exhaustive = estimate_cmv(accumulate_cmae(grids, 10, 10.0, v_cap=v_cap), 10, 10.0)
    except InsufficientPairsError:
        with pytest.raises(InsufficientPairsError):
            search_cmv(grids, 10, 10.0, v_cap=v_cap)
        return
    assert search_cmv(grids, 10, 10.0, v_cap=v_cap) == exhaustive


@given(
    seed=st.integers(0, 10_000),
    ny=st.integers(3, 14),
    nx=st.integers(3, 14),
    n_snaps=st.integers(2, 7),
    v_cap=st.sampled_from([5.0, 12.0, 40.0]),
    levels=st.sampled_from([2, 5, 0]),  # 0: continuous values, else quantised (ties)
    invalid=st.integers(-1, 6),
)
@settings(max_examples=60, deadline=None)
def test_pruned_search_equals_exhaustive_random(seed, ny, nx, n_snaps, v_cap, levels, invalid):
    grids = _random_grids(seed, ny, nx, n_snaps, levels, {invalid})
    _assert_pruned_matches_or_both_raise(grids, v_cap)


@given(
    seed=st.integers(0, 10_000),
    ny=st.integers(3, 10),
    nx=st.integers(3, 10),
    n_snaps=st.integers(9, 40),
    v_cap=st.sampled_from([5.0, 12.0, 40.0]),
    levels=st.sampled_from([2, 5, 0]),
    invalid=st.sets(st.integers(0, 39), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_pruned_search_equals_exhaustive_multi_chunk(seed, ny, nx, n_snaps, v_cap, levels, invalid):
    # 8+ pairs: the per-chunk bound is in play, and invalid snapshots
    # drop pairs from inside a chunk
    grids = _random_grids(seed, ny, nx, n_snaps, levels, invalid)
    _assert_pruned_matches_or_both_raise(grids, v_cap)


def _drifting_grids(seed, ny, nx, n_snaps, blur, sigma, v1, v2, switch):
    """A blurred random pattern moving by v1 cells per step, then by v2.

    The velocity change blurs the all-pairs sums unevenly, so candidates
    come out of the pooled bound order in an order the per-chunk levels
    disagree with.
    """
    rng = np.random.default_rng(seed)
    pad = 2 * n_snaps
    base = rng.uniform(0.09, 1.2, (ny + 2 * pad, nx + 2 * pad))
    kernel = np.ones(blur) / blur
    for axis in (0, 1):
        base = np.apply_along_axis(np.convolve, axis, base, kernel, mode="same")
    grids, oy, ox = [], pad, pad
    for k in range(n_snaps):
        grids.append(base[oy : oy + ny, ox : ox + nx] + rng.normal(0.0, sigma, (ny, nx)))
        dx, dy = v1 if k < switch else v2
        oy, ox = oy - dy, ox - dx
    return grid_block(grids)


_velocity = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@given(
    seed=st.integers(0, 10_000),
    ny=st.integers(6, 15),
    nx=st.integers(6, 15),
    n_snaps=st.integers(10, 30),
    blur=st.integers(1, 5),
    sigma=st.sampled_from([0.0, 0.01, 0.03]),
    v1=_velocity,
    v2=_velocity,
    switch=st.integers(1, 29),
)
# a candidate the per-chunk levels reject comes before a top-3 one in
# pooled bound order: stopping the search at such a rejection fails here
@example(seed=9271, ny=10, nx=10, n_snaps=19, blur=5, sigma=0.0, v1=(0, -2), v2=(0, 2), switch=12)
@settings(max_examples=40, deadline=None)
def test_pruned_search_equals_exhaustive_drifting(seed, ny, nx, n_snaps, blur, sigma, v1, v2, switch):
    grids = _drifting_grids(seed, ny, nx, n_snaps, blur, sigma, v1, v2, switch)
    _assert_pruned_matches_exhaustive(grids, 10, 10.0, 40.0)


@pytest.mark.parametrize("n_pairs", [8, 9, 16, 17])
def test_pruned_search_chunk_boundaries(n_pairs):
    # one chunk (single level), a 1-pair tail chunk, two full chunks, a
    # 1-pair tail after two full ones
    grids = _random_grids(23 + n_pairs, 9, 11, n_pairs + 1, levels=0)
    a_stack, b_stack, _, _ = cmae_mod._search_space(grids, 10, 10.0, 40.0)
    for stack in (a_stack, b_stack):
        chunks = cmae_mod._chunk_sums(stack)
        assert chunks.shape == (-(-n_pairs // cmae_mod._CHUNK_PAIRS),) + stack.shape[1:]
        for c, chunk in enumerate(chunks):
            part = stack[c * cmae_mod._CHUNK_PAIRS : (c + 1) * cmae_mod._CHUNK_PAIRS]
            assert np.array_equal(chunk, part.sum(axis=0, dtype=np.float64))
    _assert_pruned_matches_exhaustive(grids, 10, 10.0, 40.0)
    quantised = _random_grids(23 + n_pairs, 9, 11, n_pairs + 1, levels=2)
    _assert_pruned_matches_exhaustive(quantised, 10, 10.0, 40.0)


def _search_arrays(grids):
    """(a_stack, b_stack, cands, n_cells, a_chunks, b_chunks) of a search, or None."""
    try:
        a_stack, b_stack, cands, n_cells = cmae_mod._search_space(grids, 10, 10.0, 40.0)
    except InsufficientPairsError:
        return None
    a_chunks, b_chunks = cmae_mod._chunk_sums(a_stack), cmae_mod._chunk_sums(b_stack)
    return a_stack, b_stack, cands, n_cells, a_chunks, b_chunks


def _block_terms_reference(a_chunks, b_chunks, dx, dy, q):
    """Per-chunk block terms, one block at a time from the chunk sums."""
    _, ny, nx = a_chunks.shape
    ay0, ay1 = max(0, -dy), ny - max(0, dy)
    ax0, ax1 = max(0, -dx), nx - max(0, dx)
    total = np.zeros(a_chunks.shape[0])
    for y in range(ay0, ay1 - q + 1, q):
        for x in range(ax0, ax1 - q + 1, q):
            a = a_chunks[:, y : y + q, x : x + q].sum(axis=(1, 2))
            b = b_chunks[:, y + dy : y + dy + q, x + dx : x + dx + q].sum(axis=(1, 2))
            total += np.abs(a - b)
    return total


def _block_bounds(a_chunks, b_chunks, cands):
    """(candidates, chunks) per-chunk block terms of _block_terms."""
    _, ny, nx = a_chunks.shape
    blocks = cmae_mod._block_sums(a_chunks), cmae_mod._block_sums(b_chunks)
    return np.array(
        [cmae_mod._block_terms(*blocks, ny, nx, int(dx), int(dy)) for dx, dy in cands]
    )


@given(
    seed=st.integers(0, 10_000),
    ny=st.integers(2, 14),
    nx=st.integers(2, 14),
    n_snaps=st.integers(2, 20),
    invalid=st.sets(st.integers(0, 19), max_size=3),
)
@example(seed=0, ny=14, nx=13, n_snaps=3, invalid=set())  # overlaps of 1 and 2 rows
@settings(max_examples=60, deadline=None)
def test_pooled_bound_matches_block_reference(seed, ny, nx, n_snaps, invalid):
    # the all-candidate pass against a loop over whole blocks of the
    # all-pairs sums, one candidate at a time; quarter-integer values keep
    # every sum exact, so equality is exact.  Overlaps under one block on
    # either axis have no whole block and a bound of 0.
    q = cmae_mod._BLOCK
    arrays = _search_arrays(_random_grids(seed, ny, nx, n_snaps, 4, invalid))
    if arrays is None:
        return
    a_stack, b_stack, cands, n_cells, a_chunks, b_chunks = arrays
    a_all, b_all = a_chunks.sum(axis=0), b_chunks.sum(axis=0)
    pooled = cmae_mod._pooled_bounds(a_all, b_all, cands, n_cells)
    for (dx, dy), n, got in zip(cands, n_cells, pooled):
        (want,) = _block_terms_reference(a_all[None], b_all[None], int(dx), int(dy), q)
        assert got == want / n, (dx, dy)
        if ny - abs(dy) < q or nx - abs(dx) < q:
            assert got == 0.0
    exact = cmae_mod._sad_sums(a_stack, b_stack, cands) / n_cells
    assert np.all(pooled <= exact * (1.0 + cmae_mod._PRUNE_MARGIN))


@given(
    seed=st.integers(0, 10_000),
    ny=st.integers(3, 10),
    nx=st.integers(3, 10),
    n_snaps=st.integers(2, 40),
    levels=st.sampled_from([2, 5, 0]),
    invalid=st.sets(st.integers(0, 39), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_bounds_are_sound_and_nested(seed, ny, nx, n_snaps, levels, invalid):
    # pooled bound <= block bound <= exact CMAE, up to rounding, for every
    # candidate: the pooled bound is the block bound with the chunks of
    # each block summed before the absolute value is taken
    arrays = _search_arrays(_random_grids(seed, ny, nx, n_snaps, levels, invalid))
    if arrays is None:
        return
    a_stack, b_stack, cands, n_cells, a_chunks, b_chunks = arrays
    pooled = cmae_mod._pooled_bounds(a_chunks.sum(axis=0), b_chunks.sum(axis=0), cands, n_cells)
    block = _block_bounds(a_chunks, b_chunks, cands).sum(axis=1) / n_cells
    exact = cmae_mod._sad_sums(a_stack, b_stack, cands) / n_cells
    assert np.all(pooled <= block * (1.0 + 1e-12))
    assert np.all(block <= exact * (1.0 + cmae_mod._PRUNE_MARGIN))


@pytest.mark.parametrize("n_pairs", [8, 9, 17, 30])
def test_block_terms_at_most_chunk_sads(n_pairs):
    # partial distortion swaps a chunk's block term for its exact SAD, in
    # any order: each term must be at most that chunk's SAD, the short
    # tail chunk included
    arrays = _search_arrays(_random_grids(5 + n_pairs, 10, 11, n_pairs + 1, levels=0))
    a_stack, b_stack, cands, _, a_chunks, b_chunks = arrays
    terms = _block_bounds(a_chunks, b_chunks, cands)
    assert terms.shape == (len(cands), -(-n_pairs // cmae_mod._CHUNK_PAIRS))
    for c in range(terms.shape[1]):
        p = slice(c * cmae_mod._CHUNK_PAIRS, (c + 1) * cmae_mod._CHUNK_PAIRS)
        sads = cmae_mod._sad_sums(a_stack[p], b_stack[p], cands)
        assert np.all(terms[:, c] <= sads * (1.0 + cmae_mod._PRUNE_MARGIN))


@pytest.mark.parametrize("ny, nx", [(10, 11), (13, 8), (4, 7)])
def test_block_bound_parities(ny, nx):
    # sides that are not multiples of the block: every (dx, dy) parity reads
    # its own pooled array, and the overlap's last partial blocks are dropped.
    # Quarter-integer values keep every sum exact, so equality is exact.
    q = cmae_mod._BLOCK
    grids = _random_grids(41 + ny, ny, nx, 20, levels=4)
    a_stack, b_stack, _, _ = cmae_mod._search_space(grids, 10, 10.0, 40.0)
    a_chunks, b_chunks = cmae_mod._chunk_sums(a_stack), cmae_mod._chunk_sums(b_stack)
    blocks = cmae_mod._block_sums(a_chunks), cmae_mod._block_sums(b_chunks)
    shifts = range(-(q + 2), q + 3)
    for dx in shifts:
        for dy in shifts:
            if abs(dx) >= nx or abs(dy) >= ny:
                continue
            got = cmae_mod._block_terms(*blocks, ny, nx, dx, dy)
            want = _block_terms_reference(a_chunks, b_chunks, dx, dy, q)
            assert np.array_equal(got, want), (dx, dy)
    _assert_pruned_matches_exhaustive(grids, 10, 10.0, 40.0)


@pytest.mark.parametrize("seed", range(4))
def test_pruned_search_values_exact_on_wide_range(monkeypatch, seed):
    # values over twelve decades: float64 sums of their float32 differences
    # round differently when split into chunks, so a survivor of partial
    # distortion whose value came from its chunked sums would differ from
    # accumulate_cmae's in the last bits
    rng = np.random.default_rng(seed)
    grids = grid_block([10 ** rng.uniform(-6, 6, (10, 12)) for _ in range(30)])
    surface = accumulate_cmae(grids, 10, 10.0, v_cap=40.0)
    exact = {(int(dx), int(dy)): v for (dx, dy), v in zip(surface.displacements, surface.cmae)}
    partial = []

    def capture(surface, *args):
        partial.append(surface)
        return estimate_cmv(surface, *args)

    stats = {}
    with monkeypatch.context() as m:
        m.setattr(cmae_mod, "estimate_cmv", capture)
        est = search_cmv(grids, 10, 10.0, v_cap=40.0, stats=stats)
    assert est == estimate_cmv(surface, 10, 10.0)
    assert stats["rejected_partial"] > 0 and stats["full_sads"] > 3
    (evaluated,) = partial
    for (dx, dy), value in zip(evaluated.displacements, evaluated.cmae):
        assert value == exact[(int(dx), int(dy))]


def test_pruned_search_translation_zero_cmae():
    for dx, dy in ((2, 0), (0, -3), (1, 2), (-4, -1)):
        grids = translation_grids(seed=17, ny=25, nx=25, dx=dx, dy=dy, n_snaps=5, spacing_s=10)
        est = _assert_pruned_matches_exhaustive(grids, 10, 5.0, 20.0)
        assert est.top3 == ((dx, dy, 0.0),)


def _smooth_translation_grids(n_snaps, side, x0, dx=3, dy=-2):
    # a spatially correlated field, as cloud shadows are, moving by (dx, dy)
    # cells per 10 s snapshot
    rng = np.random.default_rng(18)
    noise = rng.uniform(0.09, 1.2, (side, side))
    kernel = np.ones(9) / 9.0
    smooth = np.apply_along_axis(np.convolve, 0, noise, kernel, mode="valid")
    smooth = np.apply_along_axis(np.convolve, 1, smooth, kernel, mode="valid")
    windows = [smooth[20 - k * dy : 50 - k * dy, x0 - k * dx : x0 + 30 - k * dx] for k in range(n_snaps)]
    return grid_block(windows)


def _counted_search(monkeypatch, grids, stats=None):
    """search_cmv's estimate and the number of exact SADs it computed."""
    evaluated = []
    sad_sums = cmae_mod._sad_sums

    def counting(a, b, cands):
        evaluated.append(len(cands))
        return sad_sums(a, b, cands)

    with monkeypatch.context() as m:
        m.setattr(cmae_mod, "_sad_sums", counting)
        est = search_cmv(grids, 10, 5.0, v_cap=20.0, stats=stats)
    return est, sum(evaluated)


def test_pruned_search_skips_most_candidates_on_smooth_field(monkeypatch):
    # 4 pairs, one chunk: the pooled bound prunes on its own, and far
    # displacements are never given an exact SAD
    grids = _smooth_translation_grids(5, 80, 20)
    est, evaluated = _counted_search(monkeypatch, grids)
    assert est.top3[0] == (3, -2, 0.0)
    assert evaluated < est.n_candidates // 10
    assert est == estimate_cmv(accumulate_cmae(grids, 10, 5.0, v_cap=20.0), 10, 5.0)


def test_chunk_bounds_prune_more_on_long_smooth_series(monkeypatch):
    # 17 pairs: two full chunks and a 1-pair tail. The moving pattern blurs
    # the all-pairs sums (722 exact SADs with the pooled level alone); the
    # chunk sums keep it sharp (149 with the block bound, 5 with partial
    # distortion)
    n_snaps = 18
    grids = _smooth_translation_grids(n_snaps, 120, 60)
    est, two_level = _counted_search(monkeypatch, grids)
    with monkeypatch.context() as m:
        m.setattr(cmae_mod, "_CHUNK_PAIRS", n_snaps)  # one chunk: pooled bound only
        one_level_est, one_level = _counted_search(monkeypatch, grids)
    assert est.top3[0] == (3, -2, 0.0)
    assert two_level < est.n_candidates // 10
    assert two_level < one_level
    exhaustive = estimate_cmv(accumulate_cmae(grids, 10, 5.0, v_cap=20.0), 10, 5.0)
    assert est == one_level_est == exhaustive


def test_partial_distortion_cuts_full_sads_on_long_smooth_series(monkeypatch):
    # the 17-pair series above: 149 full SADs without partial distortion,
    # 5 with it; a rejection may use the chunked sums, a survivor may not
    grids = _smooth_translation_grids(18, 120, 60)
    stats = {}
    est, full = _counted_search(monkeypatch, grids, stats)
    with monkeypatch.context() as m:
        m.setattr(cmae_mod, "_partial_rejects", lambda *args: False)
        no_partial_est, no_partial = _counted_search(monkeypatch, grids)
    assert full < no_partial // 4
    assert stats["rejected_partial"] > 0 and stats["partial_chunks"] > 0
    exhaustive = estimate_cmv(accumulate_cmae(grids, 10, 5.0, v_cap=20.0), 10, 5.0)
    assert est == no_partial_est == exhaustive


@pytest.mark.parametrize("n_snaps", [5, 18])
def test_search_stats(monkeypatch, n_snaps):
    grids = _smooth_translation_grids(n_snaps, 120, 60)
    stats = {}
    est, full = _counted_search(monkeypatch, grids, stats)
    assert est == search_cmv(grids, 10, 5.0, v_cap=20.0)
    assert list(stats) == list(cmae_mod._STATS_KEYS)
    assert stats["full_sads"] == full
    assert stats["candidates"] == est.n_candidates
    rejected = [stats[k] for k in ("rejected_pooled", "rejected_block", "rejected_partial")]
    assert sum(rejected) + full == est.n_candidates
    assert stats["rejected_partial"] <= stats["bounds_block"] - stats["rejected_block"]
    if n_snaps == 5:  # one chunk: partial distortion has nothing to sum
        assert stats["partial_chunks"] == 0
    # a second search into the same dict adds its counters to the first's
    once = dict(stats)
    search_cmv(grids, 10, 5.0, v_cap=20.0, stats=stats)
    assert stats == {k: 2 * v for k, v in once.items()}


def test_pruned_search_constant_grids_all_tie():
    # the same constant everywhere: every candidate has CMAE 0
    same = grid_block(np.full((4, 9, 11), 0.7))
    est = _assert_pruned_matches_exhaustive(same, 10, 10.0, 30.0)
    assert est.top3 == ((0, 0, 0.0),)
    # a constant per snapshot: every candidate has the same nonzero CMAE up to rounding
    stepped = grid_block([np.full((9, 11), 0.1 + 0.2 * k) for k in range(4)])
    est = _assert_pruned_matches_exhaustive(stepped, 10, 10.0, 30.0)
    assert len(est.top3) == 3


def test_pruned_search_skips_invalid_snapshots():
    grids = translation_grids(seed=19, ny=16, nx=18, dx=-1, dy=2, n_snaps=7, spacing_s=10)
    grids = grid_block(grids.values, valid=[k not in (1, 4) for k in range(7)])
    est = _assert_pruned_matches_exhaustive(grids, 10, 10.0, 40.0)
    assert est.top3[0][:2] == (-1, 2)
    # two spacings apart, only the pairs (0, 2) and (3, 5) avoid k = 1 and k = 4
    rng = np.random.default_rng(20)
    noisy = grid_block([g.values + rng.normal(0, 0.05, g.values.shape) for g in grids],
                       valid=grids.valid)
    _assert_pruned_matches_exhaustive(noisy, 20, 10.0, 40.0)


@pytest.mark.parametrize("invalid", [0, 3, 6])
def test_invalid_snapshot_first_middle_or_last(invalid):
    # the valid pairs are gathered from the block around the invalid grid
    grids = translation_grids(seed=24, ny=14, nx=15, dx=1, dy=-1, n_snaps=7, spacing_s=10)
    rng = np.random.default_rng(25)
    noisy = grid_block(grids.values + rng.normal(0, 0.05, grids.values.shape),
                       valid=[k != invalid for k in range(7)])
    surface = accumulate_cmae(noisy, 10, 10.0, v_cap=40.0)
    pairs = [(noisy[k], noisy[k + 1]) for k in range(6) if invalid not in (k, k + 1)]
    assert surface.pair_count == len(pairs) == (5 if invalid in (0, 6) else 4)
    for (dx, dy), value in zip(surface.displacements, surface.cmae):
        d = Displacement(int(dx), int(dy))
        ref = sum(mae_for_displacement(a, b, d) for a, b in pairs)
        assert value == pytest.approx(ref, rel=1e-5, abs=1e-9)
    _assert_pruned_matches_exhaustive(noisy, 10, 10.0, 40.0)


def test_search_space_views_one_block_when_every_pair_is_valid():
    grids = translation_grids(seed=26, ny=9, nx=10, dx=1, dy=0, n_snaps=12, spacing_s=10)
    a_stack, b_stack, _, _ = cmae_mod._search_space(grids, 20, 10.0, 40.0)
    assert np.shares_memory(a_stack, b_stack) and a_stack.dtype == np.float32
    assert np.array_equal(a_stack, grids.values[:-2].astype(np.float32))
    assert np.array_equal(b_stack, grids.values[2:].astype(np.float32))
    # grid 5 drops the pairs (3, 5) and (5, 7): the rest are gathered
    gappy = grid_block(grids.values, valid=[k != 5 for k in range(12)])
    a_stack, b_stack, _, _ = cmae_mod._search_space(gappy, 20, 10.0, 40.0)
    pairs = [k for k in range(10) if k not in (3, 5)]
    assert not np.shares_memory(a_stack, b_stack)
    assert np.array_equal(a_stack, grids.values[pairs].astype(np.float32))
    assert np.array_equal(b_stack, grids.values[[k + 2 for k in pairs]].astype(np.float32))
    # grid_series grids into float32, and the search reads its block in place
    rng = np.random.default_rng(26)
    rows = rng.uniform((0.0, 0.0, 0.09), (90.0, 80.0, 1.2), (12, 6, 3))
    snaps = [SensorSnapshot(t=10 * k, sensors=sensors) for k, sensors in enumerate(rows)]
    series = series_from_snapshots(snaps, MotionTruth(1.0, 0.0), sampling_period_s=10)
    gridded = grid_series(series, GridSpec(Rect(0.0, 0.0, 90.0, 80.0), 10.0), 3)
    assert gridded.values.dtype == np.float32 and gridded.valid.all()
    a_stack, b_stack, _, _ = cmae_mod._search_space(gridded, 20, 10.0, 40.0)
    assert np.shares_memory(a_stack, gridded.values) and np.shares_memory(b_stack, gridded.values)


def test_search_reads_a_read_only_float32_block_without_writing():
    grids = translation_grids(seed=27, ny=9, nx=10, dx=1, dy=-1, n_snaps=12, spacing_s=10)
    block = grids.values.astype(np.float32)
    block.flags.writeable = False
    frozen = replace(grids, values=block)
    copy64 = replace(grids, values=block.astype(np.float64))
    before = block.copy()
    for ts in (10, 20):
        assert search_cmv(frozen, ts, 10.0) == search_cmv(copy64, ts, 10.0)
        surface, reference = accumulate_cmae(frozen, ts, 10.0), accumulate_cmae(copy64, ts, 10.0)
        assert np.array_equal(surface.displacements, reference.displacements)
        assert np.array_equal(surface.cmae, reference.cmae)
    assert np.array_equal(block, before)


def test_pruned_search_single_pair():
    rng = np.random.default_rng(21)
    grids = grid_block([rng.uniform(0.09, 1.2, (13, 17)) for _ in range(2)])
    est = _assert_pruned_matches_exhaustive(grids, 10, 10.0, 40.0)
    assert len(est.top3) == 3


def test_pruned_search_fewer_than_three_candidates():
    rng = np.random.default_rng(22)
    grids = grid_block([rng.uniform(0.09, 1.2, (10, 10)) for _ in range(3)], spacing_s=1)
    # speed cap below one cell per step: (0, 0) is the only candidate
    est = _assert_pruned_matches_exhaustive(grids, 1, 100.0, 40.0)
    assert est.n_candidates == 1
    assert [d[:2] for d in est.top3] == [(0, 0)]


@pytest.fixture(scope="module")
def desk_transits():
    """60 s criterion-3 transits sampled every 5 s: at pr 0.4 in the open,
    and at pr 0.2 under a building mask that leaves two instants with fewer
    than 3 sensors."""
    bounds = Rect(0.0, 0.0, 600.0, 900.0)
    pixel = auto_pixel_size(2048, required_field_side(60, 30.0, bounds.diagonal))
    field = make_clearsky_field(2048, 1.5, seed=7, pixel_size_m=pixel)
    fleet = random_walk_fleet(100, bounds, 60, seed=42)
    mask = ShadowMask(mask=np.random.default_rng(0).random((9, 6)) < 0.75,
                      origin=(0.0, 0.0), pixel_size_m=100.0)
    cfg = TransitConfig(duration_s=60, sampling_period_s=5, seed=3)
    series = {"open": run_transit(field, subsample_by_penetration(fleet, 0.4, 0), None,
                                  draw_truth(3), cfg),
              "masked": run_transit(field, subsample_by_penetration(fleet, 0.2, 0), mask,
                                    draw_truth(3), cfg)}
    return bounds, series


@pytest.mark.parametrize("dmin, transit",
                         [(5.0, "open"), (10.0, "open"), (20.0, "open"), (10.0, "masked")])
def test_pruned_search_matches_exhaustive_on_gridded_desk_transits(desk_transits, dmin, transit):
    # a timestep of dmin seconds keeps the speed cap at 40 cells per step,
    # criterion 3's 5025 candidates where the grid holds them; the masked
    # transit's invalid instants make the search gather its stacks
    bounds, series = desk_transits
    grids = grid_series(series[transit], GridSpec(bounds, dmin), 3)
    assert grids.valid.all() == (transit == "open")
    _assert_pruned_matches_exhaustive(grids, int(dmin), dmin, 40.0)


# -------------------------------------------------------------- estimation

def _surface(entries, pair_count=1):
    d = np.array([(dx, dy) for dx, dy, _ in entries], dtype=np.int64)
    c = np.array([v for _, _, v in entries], dtype=np.float64)
    return CmaeSurface(displacements=d, cmae=c, pair_count=pair_count)


def test_estimate_equal_weight_collinear_tie():
    surf = _surface([(1, 0, 0.5), (2, 0, 0.5), (3, 0, 0.5), (5, 5, 9.0)])
    est = estimate_cmv(surf, timestep_s=10, dmin=10.0)
    assert est.speed == pytest.approx(2.0 * 10.0 / 10.0, rel=1e-12)
    assert est.direction_deg == pytest.approx(90.0, abs=1e-9)


def test_estimate_zero_cmae_wins_outright():
    surf = _surface([(3, 4, 0.0), (1, 0, 0.1), (0, 1, 0.2)])
    est = estimate_cmv(surf, timestep_s=10, dmin=10.0)
    assert est.speed == pytest.approx(5.0, rel=1e-12)  # hypot(3,4) * 10/10
    assert est.direction_deg == pytest.approx(math.degrees(math.atan2(3, 4)), rel=1e-9)
    assert len(est.top3) == 1


def test_estimate_tie_break_prefers_slower():
    surf = _surface([(2, 0, 0.5), (1, 0, 0.5), (0, 2, 0.5), (0, 1, 0.5)])
    est = estimate_cmv(surf, timestep_s=10, dmin=10.0)
    # order: (0,1), (1,0) [same |d|, dx decides], (0,2)... wait (0,2) vs (2,0)
    picked = [(dx, dy) for dx, dy, _ in est.top3]
    assert picked == [(0, 1), (1, 0), (0, 2)]


def test_estimate_translation_series_exact():
    # 1 cell east per step: the displacement quantum itself
    grids = translation_grids(seed=13, ny=30, nx=30, dx=1, dy=0, n_snaps=6, spacing_s=10)
    surface = accumulate_cmae(grids, 10, 10.0, v_cap=40.0)
    est = estimate_cmv(surface, 10, 10.0)
    assert est.speed == pytest.approx(1.0, abs=1e-9)
    assert est.direction_deg == pytest.approx(90.0, abs=1e-9)
    # 10 m/s due east: 10 cells per step at dmin 10 m, timestep 10 s
    grids = translation_grids(seed=14, ny=30, nx=30, dx=10, dy=0, n_snaps=4, spacing_s=10)
    est = estimate_cmv(accumulate_cmae(grids, 10, 10.0, v_cap=40.0), 10, 10.0)
    assert est.speed == pytest.approx(10.0, abs=1e-9)
    assert est.direction_deg == pytest.approx(90.0, abs=1e-9)


def test_estimate_fewer_than_three_candidates_flagged():
    surf = _surface([(0, 0, 0.4), (1, 0, 0.6)])
    est = estimate_cmv(surf, 10, 10.0)
    assert est.n_candidates == 2
    assert len(est.top3) == 2


def test_estimate_empty_surface():
    with pytest.raises(ValueError):
        estimate_cmv(_surface([]), 10, 10.0)


# --------------------------------------------------------------- invariants

@given(
    a=st.floats(min_value=0.1, max_value=10.0),
    b=st.floats(min_value=-1.0, max_value=1.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None)
def test_affine_scaling_preserves_ranking(a, b, seed):
    rng = np.random.default_rng(seed)
    grids = grid_block([rng.uniform(0.09, 1.2, (12, 12)) for _ in range(4)])
    scaled = grid_block(a * grids.values + b)
    s1 = accumulate_cmae(grids, 10, 10.0, v_cap=8.0)
    s2 = accumulate_cmae(scaled, 10, 10.0, v_cap=8.0)
    assert np.allclose(s2.cmae, a * s1.cmae, rtol=1e-4, atol=1e-7)
    order1 = np.argsort(s1.cmae, kind="stable")
    order2 = np.argsort(s2.cmae, kind="stable")
    gaps = np.diff(np.sort(s1.cmae)) / max(s1.cmae.max(), 1e-12)
    assume(gaps.min() > 1e-6)  # skip near-ties where float noise could swap
    assert np.array_equal(order1, order2)
    e1 = estimate_cmv(s1, 10, 10.0)
    e2 = estimate_cmv(s2, 10, 10.0)
    assert e1.speed == pytest.approx(e2.speed, rel=1e-3)
    assert e1.direction_deg == pytest.approx(e2.direction_deg, abs=0.5)


def test_mirror_symmetry_negates_east_component():
    # dyadic values keep every SAD sum exact, so mirroring is exact too
    rng = np.random.default_rng(31)
    base = rng.integers(0, 64, size=(40, 28)).astype(np.float64) / 64.0
    pad = 30
    big = np.pad(base, pad, mode="wrap")
    grids, mirrored = [], []
    dx, dy = 2, 1
    for k in range(4):
        w = big[pad - k * dy : pad - k * dy + 20, pad - k * dx : pad - k * dx + 20]
        grids.append(w)
        mirrored.append(w[:, ::-1])
    s = accumulate_cmae(grid_block(grids), 10, 10.0, v_cap=40.0)
    sm = accumulate_cmae(grid_block(mirrored), 10, 10.0, v_cap=40.0)
    e, em = estimate_cmv(s, 10, 10.0), estimate_cmv(sm, 10, 10.0)
    ve = e.speed * math.sin(math.radians(e.direction_deg))
    vn = e.speed * math.cos(math.radians(e.direction_deg))
    vem = em.speed * math.sin(math.radians(em.direction_deg))
    vnm = em.speed * math.cos(math.radians(em.direction_deg))
    assert vem == pytest.approx(-ve, rel=1e-9, abs=1e-9)
    assert vnm == pytest.approx(vn, rel=1e-9, abs=1e-9)


@given(seed=st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_estimate_never_exceeds_cap(seed):
    rng = np.random.default_rng(seed)
    grids = grid_block([rng.uniform(0.09, 1.2, (10, 10)) for _ in range(3)])
    surface = accumulate_cmae(grids, 10, 50.0, v_cap=40.0)
    est = estimate_cmv(surface, 10, 50.0)
    assert est.speed <= 40.0 + 1e-9
