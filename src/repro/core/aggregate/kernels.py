"""Tri-state classification and drill-down kernels.

The aggregate-first stages call these against a
:class:`~repro.core.aggregate.pyramid.SummaryPyramid`:

* :func:`classify_temporal` / :func:`classify_spatial` tri-state
  supernodes / spatial cells as :data:`OUT` / :data:`MAYBE` /
  :data:`IN` from the summary statistics alone;
* :func:`brush_hit_cells` and :func:`refine_temporal_rows` are the
  drill-down kernels — **exact**, elementwise-identical to the
  brute-force stages, run only over the rows of inconclusive cells.

Parity argument (the whole point).  All-in/all-out is only ever
claimed with a margin:

* spatially, a cell is OUT only when every stamp's distance to the
  cell's bbox exceeds ``radius + eps``, and IN only when some stamp
  covers the entire bbox with ``radius - eps`` to spare.  Member
  segments lie inside the bbox, and the capsule test's rounding is
  orders of magnitude below ``eps``, so the brute-force kernel provably
  agrees on every member segment;
* temporally, absolute windows classify on exact min/max statistics
  (pure comparisons, no arithmetic — no margin needed), while
  fractional windows use margins around the rounded ``(t - start) /
  dur`` statistics and leave every boundary node inconclusive.

Inconclusive work is then decided by the exact kernels below, which
evaluate the very same float expressions the brute-force stages
evaluate — so the final segment mask is bit-identical to the
brute-force plan's, by construction, for every query.
"""

from __future__ import annotations

import numpy as np

from repro.core.temporal import TimeWindow
from repro.trajectory.dataset import PackedSegments
from repro.util.geometry import point_segment_distance

from repro.core.aggregate.pyramid import SummaryPyramid

__all__ = [
    "OUT",
    "MAYBE",
    "IN",
    "TEMPORAL_EPS",
    "classify_temporal",
    "classify_spatial",
    "brush_hit_cells",
    "refine_temporal_rows",
]

#: Tri-state codes, ordered so ``min(spatial, temporal)`` combines them.
OUT, MAYBE, IN = 0, 1, 2

#: Margin on fractional temporal statistics.  The rounding error of
#: ``(t - start) / dur`` versus the brute-force ``t >= start + f * dur`` form
#: is ~1e-15 at study-like time scales; 1e-9 dwarfs it while leaving a
#: vanishingly thin inconclusive band for the exact refinement to decide.
TEMPORAL_EPS = 1e-9


def classify_temporal(
    pyramid: SummaryPyramid, window: TimeWindow, *, eps: float = TEMPORAL_EPS
) -> np.ndarray:
    """(n_nodes,) int8 tri-state of every supernode against a window.

    Empty supernodes classify OUT (they contribute no segments either
    way).  NaN fractional statistics (non-positive durations) compare
    False on every test and land on MAYBE — the exact refinement then
    evaluates whatever the brute-force predicate evaluates.
    """
    n = pyramid.n_nodes
    if window.is_everything:
        cls = np.full(n, IN, dtype=np.int8)
        cls[pyramid.node_counts == 0] = OUT
        return cls
    ts = pyramid.tstats
    if window.fractional:
        all_in = (ts[:, 6] >= window.lo + eps) & (ts[:, 5] <= window.hi - eps)
        all_out = (ts[:, 7] < window.lo - eps) | (ts[:, 4] > window.hi + eps)
    else:
        # exact min/max comparisons: no arithmetic, no margin needed
        all_in = (ts[:, 2] >= window.lo) & (ts[:, 1] <= window.hi)
        all_out = (ts[:, 3] < window.lo) | (ts[:, 0] > window.hi)
    cls = np.full(n, MAYBE, dtype=np.int8)
    cls[all_in] = IN
    cls[all_out] = OUT  # empty nodes satisfy both; OUT wins
    return cls


def classify_spatial(
    pyramid: SummaryPyramid,
    centers: np.ndarray,
    radii: np.ndarray,
    *,
    eps: float | None = None,
) -> np.ndarray:
    """(n_cells,) int8 tri-state of every leaf cell against brush discs.

    Descends the coarsening ladder: a coarse cell whose bbox is farther
    than ``radius + eps`` from every stamp is discarded with all its
    descendants (the bulk of the grid, for a localized brush).  At the
    leaf, surviving cells upgrade to IN when some stamp's disc covers
    the whole cell bbox with margin — their member segments then need
    no capsule test at all.
    """
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    margin = pyramid.spatial_eps if eps is None else float(eps)
    cls = np.zeros(pyramid.n_cells, dtype=np.int8)
    if len(centers) == 0:
        return cls

    levels = pyramid.levels
    active = np.arange(levels[0] * levels[0], dtype=np.int64)
    for li, lv in enumerate(levels):
        bb = pyramid.level_bboxes(li)[active]
        near = _disc_near_bbox(bb, centers, radii + margin)
        active = active[near]
        if len(active) == 0:
            return cls
        if li + 1 < len(levels):
            nxt = levels[li + 1]
            f = nxt // lv
            offs = np.arange(f, dtype=np.int64)
            cy, cx = active // lv, active % lv
            ccy = (cy[:, None] * f + offs[None, :])[:, :, None]
            ccx = (cx[:, None] * f + offs[None, :])[:, None, :]
            active = (ccy * nxt + ccx).reshape(-1)

    cls[active] = MAYBE
    bb = pyramid.level_bboxes(len(levels) - 1)[active]
    covered = _disc_covers_bbox(bb, centers, radii - margin)
    cls[active[covered]] = IN
    return cls


def _disc_near_bbox(
    bb: np.ndarray, centers: np.ndarray, reach: np.ndarray
) -> np.ndarray:
    """(N,) bool: some disc's reach touches the bbox (min-distance test).

    Empty-cell sentinel bboxes (``+inf``/``-inf``) yield infinite
    distances and are pruned for free.
    """
    dx = np.maximum(
        np.maximum(bb[None, :, 0] - centers[:, 0, None], 0.0),
        centers[:, 0, None] - bb[None, :, 2],
    )
    dy = np.maximum(
        np.maximum(bb[None, :, 1] - centers[:, 1, None], 0.0),
        centers[:, 1, None] - bb[None, :, 3],
    )
    d2 = dx * dx + dy * dy
    return (d2 <= (reach[:, None] * reach[:, None])).any(axis=0)


def _disc_covers_bbox(
    bb: np.ndarray, centers: np.ndarray, reach: np.ndarray
) -> np.ndarray:
    """(N,) bool: some single disc contains the whole bbox (max-corner
    distance test).  Discs whose shrunken reach is non-positive never
    cover anything."""
    mdx = np.maximum(
        np.abs(centers[:, 0, None] - bb[None, :, 0]),
        np.abs(centers[:, 0, None] - bb[None, :, 2]),
    )
    mdy = np.maximum(
        np.abs(centers[:, 1, None] - bb[None, :, 1]),
        np.abs(centers[:, 1, None] - bb[None, :, 3]),
    )
    md2 = mdx * mdx + mdy * mdy
    ok = (md2 <= (reach[:, None] * reach[:, None])) & (reach[:, None] > 0.0)
    return ok.any(axis=0)


# reprolint: exempt=RL011 — boundary-atomic stage kernel: deadline checks
# happen between stages (RL008 bans mid-stage checks), and the per-cell
# loop is bounded by the drill-down cell budget upstream
def brush_hit_cells(
    pyramid: SummaryPyramid,
    centers: np.ndarray,
    radii: np.ndarray,
    packed: PackedSegments,
    cells: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact capsule hit-test over every member row of the given cells.

    Returns ``(rows, hits)``: the member rows (as
    :meth:`SummaryPyramid.rows_in_cells` orders them) and their exact
    hit mask — elementwise-identical to
    :meth:`~repro.core.canvas.BrushCanvas.segment_hit_mask` over the
    same rows: the same ``point_segment_distance`` kernel, the same
    ``d <= radius`` comparison.

    Stamps are processed one at a time behind two conservative lower
    bounds.  A stamp whose distance to a cell's member bbox clears
    ``radius + spatial_eps`` skips that cell's rows wholesale (member
    segments lie inside the bbox, so none can hit); surviving rows must
    then pass the point-to-segment-bbox bound, which never exceeds the
    true capsule distance.  Pairs inside the margin — where float
    rounding could matter — always fall through to the exact test, and
    rows already hit by an earlier stamp drop out of later passes.  This
    is the drill-down workhorse: inconclusive cells hug each stamp's
    boundary, so per stamp the candidate set shrinks from "all
    inconclusive rows" to "rows of the few cells on *this* stamp's rim".
    """
    from repro.core.aggregate.pyramid import _multi_range_indices

    cells = np.asarray(cells, dtype=np.int64)
    rows = pyramid.rows_in_cells(cells)
    out = np.zeros(len(rows), dtype=bool)
    if len(centers) == 0 or len(rows) == 0:
        return rows, out
    # member-extent bbox per cell (leaf level of the coarsening ladder;
    # empty cells carry ±inf sentinels and never test near)
    bb = pyramid.level_bboxes(len(pyramid.levels) - 1)[cells]
    tb = pyramid.n_tbuckets
    lens = pyramid.offsets[(cells + 1) * tb] - pyramid.offsets[cells * tb]
    pos_offsets = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(lens, out=pos_offsets[1:])
    a = packed.a[rows]
    b = packed.b[rows]
    seg_lo = np.minimum(a, b)
    seg_hi = np.maximum(a, b)
    margin = pyramid.spatial_eps
    for j in range(len(centers)):
        cx, cy = centers[j]
        reach = radii[j] + margin
        dxc = np.maximum(np.maximum(bb[:, 0] - cx, cx - bb[:, 2]), 0.0)
        dyc = np.maximum(np.maximum(bb[:, 1] - cy, cy - bb[:, 3]), 0.0)
        near = np.flatnonzero(dxc * dxc + dyc * dyc <= reach * reach)
        if not len(near):
            continue
        cand = _multi_range_indices(pos_offsets[near], pos_offsets[near + 1])
        cand = cand[~out[cand]]
        if not len(cand):
            continue
        dx = np.maximum(
            np.maximum(seg_lo[cand, 0] - cx, cx - seg_hi[cand, 0]), 0.0
        )
        dy = np.maximum(
            np.maximum(seg_lo[cand, 1] - cy, cy - seg_hi[cand, 1]), 0.0
        )
        cand = cand[dx * dx + dy * dy <= reach * reach]
        if not len(cand):
            continue
        d = point_segment_distance(centers[j], a[cand], b[cand])
        out[cand] = d <= radii[j]
    return rows, out


def refine_temporal_rows(
    pyramid: SummaryPyramid,
    packed: PackedSegments,
    window: TimeWindow,
    rows: np.ndarray,
) -> np.ndarray:
    """Exact temporal predicate over a row subset.

    Evaluates precisely the expressions
    :meth:`~repro.core.temporal.TimeWindow.segment_mask` evaluates —
    per-trajectory bounds as ``start + f * dur`` over the pyramid's
    exact ``traj_start``/``traj_dur`` tables, then the overlap
    comparison — gathered down to ``rows``, so inconclusive supernodes
    resolve bit-identically to the brute-force temporal stage (without
    that stage's per-trajectory Python iteration).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if window.is_everything:
        return np.ones(len(rows), dtype=bool)
    if window.fractional:
        lo_arr = pyramid.traj_start + window.lo * pyramid.traj_dur
        hi_arr = pyramid.traj_start + window.hi * pyramid.traj_dur
        own = packed.owner[rows]
        w_lo = lo_arr[own]
        w_hi = hi_arr[own]
    else:
        w_lo = window.lo
        w_hi = window.hi
    return (packed.t1[rows] >= w_lo) & (packed.t0[rows] <= w_hi)
