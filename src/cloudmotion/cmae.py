"""Cloud motion vectors from gridded snapshot pairs by displacement search.

For every 2-D integer-cell displacement within the speed cap, the mean
absolute error between overlapping parts of snapshot pairs (t, t + Ts) is
accumulated over the whole observation window.  The three displacements
with the lowest cumulative error, inverse-error weighted, give a sub-cell
velocity and direction estimate.  accumulate_cmae computes the whole error
surface; search_cmv reaches the same estimate while most candidates get
only cheap lower bounds.  Both read a gridding.GridSeries' float32 block
in place, as gridding writes it; a hand-built float64 block is copied to
float32 once per search.  Neither writes into the block.

search_cmv is exact successive elimination over a three-level pyramid
of lower bounds, each tighter and dearer than the last: the pooled bound
(sums over every pair and _BLOCK x _BLOCK cell blocks, for every
candidate in one pass), the block bound (the same per chunk of
_CHUNK_PAIRS consecutive pairs) and partial distortion, which adds exact
chunk SADs one chunk at a time to the block terms of the chunks still to
come.  A candidate that survives all three gets its exact SAD from the
kernel accumulate_cmae uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .gridding import GridSeries

V_CAP_MPS = 40.0
MIN_OVERLAP_FRACTION = 0.1
# search_cmv prunes a candidate only when a lower bound on its CMAE is above
# the third-best CMAE by this relative slack.  The bounds are the pooled
# bound, the block bound and, in partial distortion, the exact SAD of some
# chunks plus the block terms of the rest (per chunk of _CHUNK_PAIRS
# consecutive pairs).  The SAD rounds each |a - b| to float32 (relative
# error under 6e-8) before summing in float64, and so do the exact chunk
# parts; every bound term subtracts float64 sums (over pairs, and over
# block cells) of the same float32 values.  So a computed bound, mixed or
# not, can exceed the computed CMAE it bounds by far less than 1e-3
# relative: rounding cannot drop a true top-3 candidate or tie.
_PRUNE_MARGIN = 1e-3
_CHUNK_PAIRS = 8
_BLOCK = 3  # side in cells of the blocks of search_cmv's pooled and block bounds
# the counters search_cmv adds to its stats dict
_STATS_KEYS = (
    "candidates", "bounds_block", "rejected_pooled", "rejected_block",
    "rejected_partial", "partial_chunks", "full_sads",
)


class InsufficientPairsError(RuntimeError):
    """No valid snapshot pair to accumulate over."""


@dataclass(frozen=True)
class CmaeSurface:
    """Cumulative MAE per candidate displacement.

    cmae[i] is the sum of per-pair MAEs for displacements[i]; pair_count is
    shared by construction (pairs touching an invalid snapshot are skipped
    for every displacement alike).
    """

    displacements: np.ndarray  # (M, 2) int, columns dx, dy
    cmae: np.ndarray  # (M,) float64
    pair_count: int


@dataclass(frozen=True)
class CmvEstimate:
    """Estimated cloud motion vector with search diagnostics.

    top3 holds (dx, dy, cmae) for the best candidates actually used;
    n_candidates < 3 flags an unusually thin search space.
    """

    speed: float
    direction_deg: float
    valid: bool
    top3: tuple
    n_candidates: int


def displacement_candidates(
    nx: int,
    ny: int,
    dmin: float,
    timestep_s: float,
    v_cap: float = V_CAP_MPS,
) -> np.ndarray:
    """All integer displacements within the speed cap and overlap floor.

    Rows are (dx, dy), ordered by dy then dx.  The overlap floor drops
    shifts whose overlap falls below MIN_OVERLAP_FRACTION of the grid, where a
    handful of cells would make the MAE meaninglessly noisy.
    """
    r = int(math.floor(v_cap * timestep_s / dmin))
    dxs, dys = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
    dxs, dys = dxs.ravel(), dys.ravel()
    speed = dmin * np.hypot(dxs, dys) / timestep_s
    overlap = np.maximum(nx - np.abs(dxs), 0) * np.maximum(ny - np.abs(dys), 0)
    keep = (speed <= v_cap) & (overlap >= MIN_OVERLAP_FRACTION * nx * ny) & (overlap > 0)
    return np.column_stack([dxs[keep], dys[keep]])


def _overlap_slices(nx: int, ny: int, dx: int, dy: int) -> tuple:
    """Index windows so a[ay, ax] aligns with b[ay + dy, ax + dx]."""
    ax0, ax1 = max(0, -dx), nx - max(0, dx)
    ay0, ay1 = max(0, -dy), ny - max(0, dy)
    return (slice(ay0, ay1), slice(ax0, ax1)), (slice(ay0 + dy, ay1 + dy), slice(ax0 + dx, ax1 + dx))


def _search_space(series: GridSeries, timestep_s, dmin, v_cap) -> tuple:
    """(a_stack, b_stack, candidates, overlap cells per candidate).

    The stacks are float32 (pairs, ny, nx) arrays of every (t, t +
    timestep_s) pair, read in place from a gridded float32 block (a float64
    one is copied): two views of it when every pair is valid.  Pairs
    touching an invalid snapshot are skipped for all displacements, keeping
    the candidate CMAEs comparable.  The search only reads the stacks.
    """
    spacing = series.instants.step
    if timestep_s <= 0 or timestep_s % spacing != 0:
        raise ValueError(f"timestep {timestep_s} is not a positive multiple of {spacing}")
    step = int(timestep_s) // spacing
    pairs = np.flatnonzero(series.valid[:-step] & series.valid[step:])
    if pairs.size == 0:
        raise InsufficientPairsError(f"no valid pair {timestep_s} s apart in {len(series)} grids")

    block = np.asarray(series.values, dtype=np.float32)
    if pairs.size == len(series) - step:
        a_stack, b_stack = block[:-step], block[step:]
    else:
        a_stack, b_stack = block[pairs], block[pairs + step]
    _, ny, nx = block.shape
    cands = displacement_candidates(nx, ny, dmin, timestep_s, v_cap)
    if cands.shape[0] == 0:
        raise InsufficientPairsError("no admissible displacement on this grid")
    n_cells = (nx - np.abs(cands[:, 0])) * (ny - np.abs(cands[:, 1]))
    return a_stack, b_stack, cands, n_cells


def _sad_sums(a_stack: np.ndarray, b_stack: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Sum of |a - shifted b| over pairs and overlap cells, per candidate row.

    Each candidate's sum depends only on its own (dx, dy), so a subset of
    candidates gets exactly the values it has in the full sweep.
    """
    _, ny, nx = a_stack.shape
    sums = np.empty(cands.shape[0])
    for i, (dx, dy) in enumerate(cands):
        sa, sb = _overlap_slices(nx, ny, int(dx), int(dy))
        diff = a_stack[(slice(None),) + sa] - b_stack[(slice(None),) + sb]
        sums[i] = np.abs(diff, out=diff).sum(dtype=np.float64)
    return sums


def accumulate_cmae(
    series: GridSeries,
    timestep_s: int,
    dmin: float,
    v_cap: float = V_CAP_MPS,
) -> CmaeSurface:
    """Accumulate per-pair MAEs over every (t, t + timestep_s) pair.

    This is the exhaustive search: every admissible displacement gets its
    CMAE.  search_cmv gives the same estimate while skipping most of them.
    """
    a_stack, b_stack, cands, n_cells = _search_space(series, timestep_s, dmin, v_cap)
    cmae = _sad_sums(a_stack, b_stack, cands) / n_cells
    return CmaeSurface(displacements=cands, cmae=cmae, pair_count=a_stack.shape[0])


def _chunk_sums(stack: np.ndarray) -> np.ndarray:
    """(chunks, ny, nx) float64 sums of _CHUNK_PAIRS consecutive pairs.

    The last chunk may hold fewer pairs; no padded copy of the stack is made.
    """
    return np.stack([stack[p:p + _CHUNK_PAIRS].sum(axis=0, dtype=np.float64)
                     for p in range(0, len(stack), _CHUNK_PAIRS)])


def _box_sums(chunks: np.ndarray) -> np.ndarray:
    """(chunks, ny - q + 1, nx - q + 1) sums over the q x q cell box at each corner (q = _BLOCK)."""
    q = _BLOCK
    _, ny, nx = chunks.shape
    my, mx = max(ny - q + 1, 0), max(nx - q + 1, 0)  # block corners per axis
    rows = sum(chunks[:, k : k + my] for k in range(q))
    return sum(rows[:, :, k : k + mx] for k in range(q))


def _pooled_bounds(a_all, b_all, cands, n_cells) -> np.ndarray:
    """Lower bound on the CMAE per candidate row: the block bound of the all-pairs sums.

    a_all and b_all are (ny, nx) sums over every pair; one gather per dy
    takes every dx's whole overlap blocks, tiled as in _block_terms.  By
    the triangle inequality over pairs and block cells the bound never
    exceeds the CMAE (Li & Salari, IEEE TIP 1995; Gao, Duanmu & Zou, IEEE
    TIP 2000).
    """
    q = _BLOCK
    ny, nx = a_all.shape
    a_box, b_box = _box_sums(a_all[None])[0], _box_sums(b_all[None])[0]
    terms = np.zeros(cands.shape[0])
    for dy in np.unique(cands[:, 1]):
        rows = np.flatnonzero(cands[:, 1] == dy)
        dxs, ay, ry = cands[rows, 0][:, None], max(0, -dy), (ny - abs(dy)) // q
        rx = (nx - np.abs(dxs)) // q
        i = np.arange(rx.max())
        ax = np.where(i < rx, np.maximum(0, -dxs) + q * i, 0)  # 0 pads the short rows
        bx = np.where(i < rx, ax + dxs, 0)
        diff = a_box[ay : ay + q * ry : q][:, ax] - b_box[ay + dy : ay + dy + q * ry : q][:, bx]
        terms[rows] = (np.abs(diff, out=diff) * (i < rx)).sum(axis=(0, 2))
    return terms / n_cells


def _block_sums(chunks: np.ndarray) -> list:
    """_box_sums split by corner parity: entry [py][px] holds corners (py + q*j, px + q*i)."""
    q = _BLOCK
    box = _box_sums(chunks)
    return [[np.ascontiguousarray(box[:, py::q, px::q]) for px in range(q)] for py in range(q)]


def _block_terms(a_blocks: list, b_blocks: list, ny: int, nx: int, dx: int, dy: int) -> np.ndarray:
    """Per chunk, the sum over whole overlap blocks of |block sum A - block sum shifted B|.

    The blocks tile the overlap from its first cell, and the cut blocks at
    the far edges are dropped.  By the triangle inequality over each
    block's cells and the chunk's pairs, a term is at most the chunk's SAD.
    """
    q = _BLOCK
    ay, ax = max(0, -dy), max(0, -dx)
    by, bx = ay + dy, ax + dx
    ry, rx = (ny - abs(dy)) // q, (nx - abs(dx)) // q
    a = a_blocks[ay % q][ax % q][:, ay // q : ay // q + ry, ax // q : ax // q + rx]
    b = b_blocks[by % q][bx % q][:, by // q : by // q + ry, bx // q : bx // q + rx]
    diff = a - b
    return np.abs(diff, out=diff).sum(axis=(1, 2))


def _partial_rejects(a_stack, b_stack, dx, dy, terms, limit_sum, counts) -> bool:
    """Partial distortion elimination (Bei & Gray, IEEE Trans. Commun. 1985).

    Adds the exact SAD chunk by chunk, largest block term first, and
    reports whether the exact part plus the block terms of the chunks
    still to come exceeds limit_sum: in any order, a lower bound on the
    SAD.  The last chunk is never summed here: a candidate that gets that
    far gets its value from _sad_sums, whose rounding the chunked sum does
    not share.
    """
    _, ny, nx = a_stack.shape
    sa, sb = _overlap_slices(nx, ny, dx, dy)
    a, b = a_stack[(slice(None),) + sa], b_stack[(slice(None),) + sb]
    order = np.argsort(-terms, kind="stable")
    rest = np.cumsum(terms[order][::-1])[::-1]  # rest[k]: terms of chunks order[k:]
    exact = 0.0
    for k, c in enumerate(order[:-1], 1):
        p = slice(c * _CHUNK_PAIRS, (c + 1) * _CHUNK_PAIRS)
        diff = a[p] - b[p]
        exact += np.abs(diff, out=diff).sum(dtype=np.float64)
        counts["partial_chunks"] += 1
        if exact + rest[k] > limit_sum:
            return True
    return False


def search_cmv(
    series: GridSeries,
    timestep_s: int,
    dmin: float,
    v_cap: float = V_CAP_MPS,
    stats: Optional[dict] = None,
) -> CmvEstimate:
    """estimate_cmv(accumulate_cmae(...)), bit for bit, by successive elimination.

    Every candidate gets the pooled bound of _pooled_bounds in one pass.
    Candidates are taken in increasing order of it, and the search stops
    once it is above the third-best exact CMAE.  A candidate below that
    limit must then pass two more tests, the second tighter and dearer than
    the first: the block bound, the sum of its per-chunk _block_terms, and
    partial distortion, which swaps those terms for exact chunk SADs one
    chunk at a time (with one chunk of _CHUNK_PAIRS pairs, the block bound
    repeats the pooled one and partial distortion sums nothing).  A
    candidate that passes both gets its exact CMAE from the same kernel
    accumulate_cmae uses.  Every candidate that could enter the top three,
    ties included, is therefore evaluated, and n_candidates still counts
    the whole admissible set.

    If stats is a dict, the search's counters are added to it, so one dict
    can sum many searches: candidates, block bounds computed, candidates
    rejected at each level, chunks summed by partial distortion and full
    exact SADs (the keys of _STATS_KEYS).
    """
    a_stack, b_stack, cands, n_cells = _search_space(series, timestep_s, dmin, v_cap)
    _, ny, nx = a_stack.shape
    a_chunks, b_chunks = _chunk_sums(a_stack), _chunk_sums(b_stack)
    bound = _pooled_bounds(a_chunks.sum(axis=0), b_chunks.sum(axis=0), cands, n_cells)
    blocks = None  # built when the first candidate reaches the block test
    counts = {**dict.fromkeys(_STATS_KEYS, 0), "candidates": cands.shape[0]}

    evaluated, values = [], []
    best = []  # the three lowest exact CMAEs so far, ascending
    for rank, i in enumerate(np.argsort(bound, kind="stable")):
        dx, dy, n = int(cands[i, 0]), int(cands[i, 1]), n_cells[i]
        if len(best) == 3:
            limit = best[2] * (1.0 + _PRUNE_MARGIN)
            if bound[i] > limit:
                counts["rejected_pooled"] = cands.shape[0] - rank  # this one and every later one
                break
            if blocks is None:
                blocks = _block_sums(a_chunks), _block_sums(b_chunks)
                a_chunks = b_chunks = None  # the block sums replace them
            counts["bounds_block"] += 1
            terms = _block_terms(*blocks, ny, nx, dx, dy)
            if terms.sum() / n > limit:
                counts["rejected_block"] += 1
                continue
            if _partial_rejects(a_stack, b_stack, dx, dy, terms, limit * n, counts):
                counts["rejected_partial"] += 1
                continue
        counts["full_sads"] += 1
        value = float(_sad_sums(a_stack, b_stack, cands[i : i + 1])[0] / n)
        evaluated.append(i)
        values.append(value)
        best = sorted(best + [value])[:3]
    if stats is not None:
        stats.update({k: stats.get(k, 0) + v for k, v in counts.items()})
    partial = CmaeSurface(cands[evaluated], np.array(values), pair_count=a_stack.shape[0])
    return replace(estimate_cmv(partial, timestep_s, dmin), n_candidates=cands.shape[0])


def estimate_cmv(surface: CmaeSurface, timestep_s: int, dmin: float) -> CmvEstimate:
    """Inverse-error weighting of the three lowest-CMAE displacements.

    Candidate order on ties is (cmae, |d|, dx, dy): prefer slower,
    deterministic.  A zero-CMAE candidate wins outright.  The weighted mean
    displacement converts to speed |v| * dmin / timestep and direction in
    degrees clockwise from north; since every candidate respects the speed
    cap and the weights are convex, so does the estimate.
    """
    m = surface.displacements.shape[0]
    if m == 0:
        raise ValueError("empty CMAE surface")
    dxs = surface.displacements[:, 0].astype(np.float64)
    dys = surface.displacements[:, 1].astype(np.float64)
    order = np.lexsort((dys, dxs, np.hypot(dxs, dys), surface.cmae))
    top = order[: min(3, m)]

    if surface.cmae[top[0]] == 0.0:
        vx, vy = dxs[top[0]], dys[top[0]]
        top = top[:1]
    else:
        w = 1.0 / surface.cmae[top]
        vx = float((w * dxs[top]).sum() / w.sum())
        vy = float((w * dys[top]).sum() / w.sum())

    scale = dmin / timestep_s
    speed = math.hypot(vx, vy) * scale
    direction = math.degrees(math.atan2(vx, vy)) % 360.0
    top3 = tuple(
        (int(surface.displacements[i, 0]), int(surface.displacements[i, 1]), float(surface.cmae[i]))
        for i in top
    )
    return CmvEstimate(
        speed=speed, direction_deg=direction, valid=True, top3=top3, n_candidates=m
    )


def invalid_estimate() -> CmvEstimate:
    """Placeholder for transits where no estimate could be formed."""
    return CmvEstimate(
        speed=float("nan"), direction_deg=float("nan"), valid=False, top3=(), n_candidates=0
    )
