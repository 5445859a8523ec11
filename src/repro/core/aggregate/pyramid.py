"""The hierarchical spatio-temporal summary pyramid.

One :class:`SummaryPyramid` summarizes a dataset's packed segment view
into ``res × res`` spatial grid cells × ``n_tbuckets`` time buckets
(**supernodes**, SOM-style per §VI-C of the paper).  Per supernode it
keeps sufficient statistics the aggregate-first planner classifies
against without touching raw segments:

* segment membership as a CSR table (``entries``/``offsets``) plus the
  inverse ``node_of`` map — all nodes of one spatial cell are adjacent
  in node space, so "the segments of these cells" is a gather over
  contiguous ranges;
* a spatial bounding box over the member segments' full extents (a
  segment is binned by midpoint but may overhang its cell; the bbox
  accounts for it, which is what makes bbox-based pruning rigorous);
* temporal extents, absolute (min/max of ``t0``/``t1``) **and**
  fractional (min/max of ``(t - start) / duration`` of the owning
  trajectory) so both window modes classify in O(nodes);
* a per-spatial-cell trajectory bitset (``uint64`` words) answering
  "which trajectories could this region touch" without a segment scan;
* per-level coarsened bounding boxes (the *pyramid*): a brush query
  descends coarse → fine, discarding all-out regions wholesale before
  any per-cell work.

Everything is a flat, read-only numpy table.  A pyramid lives in the
engine that built it; a rollover's successor engine builds its own over
the new epoch's packed view.

Exactness contract: the pyramid itself never decides a boundary case.
Classification (see :mod:`~repro.core.aggregate.kernels`) claims
all-in/all-out only with an epsilon margin; everything else drills
down to the *exact* brute-force kernels over the member segments.  The
fractional temporal statistics are therefore advisory (their rounding
differs from the brute-force ``start + f * duration`` form), while
``traj_start``/``traj_dur`` are computed with the exact expressions
:meth:`TimeWindow.segment_mask` uses, so drill-down refinement is
bit-identical to the brute-force temporal stage.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.trajectory.dataset import PackedSegments, TrajectoryDataset

__all__ = ["SummaryPyramid"]

#: Default spatial resolution of the leaf grid.
DEFAULT_RES = 64
#: Default number of fractional time buckets per cell.
DEFAULT_TBUCKETS = 8
#: Default coarsening ladder (coarsest first, last level == leaf res).
DEFAULT_LEVELS = (8, 16, 32, 64)


class SummaryPyramid:
    """Immutable supernode statistics over one packed segment view.

    Build with :meth:`build`: vectorized, no Python loop over segments.
    It bins every segment once, orders the rows by node with one stable
    sort of the node ids (a radix sort while they fit 16 bits), gathers
    each statistic's source column into that order once and reduces it
    per node, and sets each cell's bitset bits from the (cell, owner)
    pairs that start a run of equal pairs.  All arrays are read-only
    after construction — a pyramid is published into epoch snapshots
    and read lock-free by concurrent sessions, exactly like the packed
    view it summarizes.

    Attributes
    ----------
    packed:
        The summarized segment view (identity is part of the
        correctness contract: classifying against one epoch's pyramid
        and drilling into another epoch's segments is a bug the engine
        guards against).
    res / n_tbuckets / levels:
        Grid resolution, time-bucket count, coarsening ladder.
    node_of:
        (S,) int32 supernode id per segment row
        (``node = (cy * res + cx) * n_tbuckets + tbucket``).
    entries / offsets:
        CSR over nodes: node ``n`` owns segment rows
        ``entries[offsets[n]:offsets[n+1]]``.
    bbox:
        (n_nodes, 4) ``[xmin, ymin, xmax, ymax]`` over member segment
        extents (``+inf``/``-inf`` sentinels for empty nodes).
    tstats:
        (n_nodes, 8) temporal stats ``[t0min, t0max, t1min, t1max,
        g0min, g0max, g1min, g1max]`` where ``g = (t - start) / dur``
        of the owning trajectory (NaN when a duration is non-positive,
        which forces the node inconclusive).
    bits:
        (res*res, n_words) uint64 per-cell trajectory bitsets.
    level_bbox / level_offsets:
        Concatenated per-level cell bboxes, coarsest first; level ``i``
        spans rows ``level_offsets[i]:level_offsets[i+1]`` and the last
        level is the leaf grid itself.
    traj_start / traj_dur:
        (T,) per-trajectory start time and duration, computed with the
        exact expressions the brute-force temporal stage uses.
    lo / cell_size:
        Grid geometry of the leaf grid.
    """

    __slots__ = (
        "packed",
        "res",
        "n_tbuckets",
        "levels",
        "lo",
        "cell_size",
        "node_of",
        "entries",
        "offsets",
        "bbox",
        "tstats",
        "bits",
        "level_bbox",
        "level_offsets",
        "traj_start",
        "traj_dur",
        "spatial_eps",
        "_cell_of_rows",
    )

    # Construction --------------------------------------------------------
    @classmethod
    def build(
        cls,
        packed: PackedSegments,
        dataset: TrajectoryDataset,
        *,
        res: int = DEFAULT_RES,
        n_tbuckets: int = DEFAULT_TBUCKETS,
        levels: tuple[int, ...] = DEFAULT_LEVELS,
    ) -> "SummaryPyramid":
        """Summarize ``packed`` into a fresh pyramid (no Python loop
        over segments)."""
        t_build = time.perf_counter()
        _validate_shape(res, n_tbuckets, levels)
        if packed.n_segments == 0:
            raise ValueError("cannot summarize an empty segment set")
        if len(dataset) == 0:
            raise ValueError("cannot summarize an empty dataset")

        self = cls.__new__(cls)
        self.packed = packed
        self.res = int(res)
        self.n_tbuckets = int(n_tbuckets)
        self.levels = tuple(int(v) for v in levels)

        # per-segment extents as contiguous x/y columns: the grid
        # geometry, the cell binning and the node bboxes all read
        # these, never the strided (S, 2) endpoint arrays
        ax, ay = packed.a[:, 0], packed.a[:, 1]
        bx, by = packed.b[:, 0], packed.b[:, 1]
        lo_x, hi_x = np.minimum(ax, bx), np.maximum(ax, bx)
        lo_y, hi_y = np.minimum(ay, by), np.maximum(ay, by)

        # grid geometry over segment endpoint extents, padded so
        # boundary points land strictly inside
        lo_pt = np.array([lo_x.min(), lo_y.min()])
        hi_pt = np.array([hi_x.max(), hi_y.max()])
        span = np.maximum(hi_pt - lo_pt, 1e-12)
        self.lo = lo_pt - 1e-9 * span
        self.cell_size = (span * (1.0 + 2e-9)) / res
        self.spatial_eps = float(1e-9 * span.max())

        # exact per-trajectory start/duration — the same expressions
        # TimeWindow.segment_mask evaluates, so drill-down refinement
        # reproduces the brute-force temporal predicate bit for bit
        n_traj = len(dataset)
        self.traj_start = np.fromiter(
            (float(t.times[0]) for t in dataset), dtype=np.float64, count=n_traj
        )
        self.traj_dur = np.fromiter(
            (t.duration for t in dataset), dtype=np.float64, count=n_traj
        )

        # bin each segment: spatial cell by midpoint, time bucket by the
        # fractional midpoint of its span within the owning trajectory
        cell = _axis_cells(lo_y, hi_y, self.lo[1], self.cell_size[1], res)
        cell *= res
        cell += _axis_cells(lo_x, hi_x, self.lo[0], self.cell_size[0], res)

        frac = packed.t0 + packed.t1
        frac *= 0.5
        frac -= self.traj_start[packed.owner]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac /= self.traj_dur[packed.owner]
        good = np.isfinite(frac)
        frac *= n_tbuckets
        np.floor(frac, out=frac)
        if not good.all():  # no usable duration: bucket 0
            frac[~good] = 0.0
        del good
        node = frac.astype(np.int64)
        del frac
        np.clip(node, 0, n_tbuckets - 1, out=node)
        node += cell * n_tbuckets
        n_nodes = res * res * n_tbuckets
        self.node_of = node.astype(np.int32)

        # per-cell trajectory bitsets (cells, not nodes: at 100x scale
        # per-node bitsets would be n_tbuckets times larger for no
        # classification gain).  A trajectory's rows are adjacent and
        # mostly stay in a cell for many rows, so only the first row of
        # each run of equal (cell, owner) pairs sets its bit: OR is
        # idempotent, so the dropped repeats could not change one
        n_cells = res * res
        n_words = (n_traj + 63) // 64
        owner = packed.owner
        first = np.empty(packed.n_segments, dtype=bool)
        first[0] = True
        np.not_equal(cell[1:], cell[:-1], out=first[1:])
        first[1:] |= owner[1:] != owner[:-1]
        p_cell = cell[first]
        p_owner = owner[first]
        del cell, first
        bits = np.zeros(n_cells * n_words, dtype=np.uint64)
        np.bitwise_or.at(
            bits,
            p_cell * n_words + (p_owner >> 6),
            np.uint64(1) << (p_owner.astype(np.uint64) & np.uint64(63)),
        )
        del p_cell, p_owner
        self.bits = bits.reshape(n_cells, n_words)

        # CSR over nodes: a stable sort of the node ids as the narrowest
        # unsigned type that holds them (NumPy sorts 8- and 16-bit keys
        # with a radix sort, which the default shape's 32,768 nodes fit)
        key = node.astype(np.min_scalar_type(n_nodes - 1))
        order = np.argsort(key, kind="stable")
        del key
        self.entries = order
        counts = np.bincount(node, minlength=n_nodes)
        del node
        self.offsets = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        has = counts > 0
        occ_starts = self.offsets[:-1][has]

        # Per-node reductions over occupied nodes only: consecutive
        # occupied starts tile the sorted positions exactly (empty nodes
        # are zero-width in CSR) and the final run extends to the end
        # of the array.  Clamping all offsets into range instead would
        # hand reduceat a start == stop pair for the last occupied node,
        # silently dropping its final member.  Empty nodes keep the
        # +inf (min) / -inf (max) sentinels.  Each source column is
        # gathered into node order once and dropped after its use.

        # per-node bbox over full segment extents (not just midpoints)
        bbox = np.full((n_nodes, 4), np.inf)
        bbox[:, 2:] = -np.inf
        bbox[has, 0] = np.minimum.reduceat(lo_x[order], occ_starts)
        del lo_x
        bbox[has, 1] = np.minimum.reduceat(lo_y[order], occ_starts)
        del lo_y
        bbox[has, 2] = np.maximum.reduceat(hi_x[order], occ_starts)
        del hi_x
        bbox[has, 3] = np.maximum.reduceat(hi_y[order], occ_starts)
        del hi_y
        self.bbox = bbox

        # temporal stats: absolute extents are exact; fractional ones
        # carry division rounding and are only ever used with margins.
        # g0/g1 come from the node-ordered t0/t1 and owners, so no
        # per-segment column is gathered twice
        t0 = packed.t0[order]
        t1 = packed.t1[order]
        owner_sorted = owner[order]
        start = self.traj_start[owner_sorted]
        dur = self.traj_dur[owner_sorted]
        del owner_sorted
        with np.errstate(divide="ignore", invalid="ignore"):
            g0 = (t0 - start) / dur
            g1 = (t1 - start) / dur
        del start, dur
        bad = ~(np.isfinite(g0) & np.isfinite(g1))
        g0[bad] = np.nan
        g1[bad] = np.nan
        del bad
        tstats = np.full((n_nodes, 8), np.inf)
        tstats[:, 1::2] = -np.inf
        for j, col in enumerate((t0, t1, g0, g1)):
            tstats[has, 2 * j] = np.minimum.reduceat(col, occ_starts)
            tstats[has, 2 * j + 1] = np.maximum.reduceat(col, occ_starts)
        del t0, t1, g0, g1
        self.tstats = tstats

        # the pyramid proper: leaf cell bboxes coarsened per level
        cell_bbox = np.column_stack(
            [
                self.bbox[:, 0].reshape(n_cells, n_tbuckets).min(axis=1),
                self.bbox[:, 1].reshape(n_cells, n_tbuckets).min(axis=1),
                self.bbox[:, 2].reshape(n_cells, n_tbuckets).max(axis=1),
                self.bbox[:, 3].reshape(n_cells, n_tbuckets).max(axis=1),
            ]
        )
        level_parts: list[np.ndarray] = []
        for lv in self.levels:
            if lv == res:
                level_parts.append(cell_bbox)
                continue
            f = res // lv
            grid = cell_bbox.reshape(res, res, 4)
            tiled = grid.reshape(lv, f, lv, f, 4)
            coarse = np.empty((lv, lv, 4), dtype=np.float64)
            coarse[..., 0] = tiled[..., 0].min(axis=(1, 3))
            coarse[..., 1] = tiled[..., 1].min(axis=(1, 3))
            coarse[..., 2] = tiled[..., 2].max(axis=(1, 3))
            coarse[..., 3] = tiled[..., 3].max(axis=(1, 3))
            level_parts.append(coarse.reshape(lv * lv, 4))
        self.level_bbox = np.concatenate(level_parts, axis=0)
        self.level_offsets = np.zeros(len(self.levels) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((lv * lv for lv in self.levels), dtype=np.int64),
            out=self.level_offsets[1:],
        )

        self._cell_of_rows = None
        self._freeze()
        obs.observe(
            "service.aggregate.build_seconds", time.perf_counter() - t_build
        )
        return self

    def _freeze(self) -> None:
        for arr in (
            self.lo,
            self.cell_size,
            self.node_of,
            self.entries,
            self.offsets,
            self.bbox,
            self.tstats,
            self.bits,
            self.level_bbox,
            self.level_offsets,
            self.traj_start,
            self.traj_dur,
        ):
            arr.setflags(write=False)

    # Introspection -------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total supernodes (``res * res * n_tbuckets``)."""
        return self.res * self.res * self.n_tbuckets

    @property
    def n_cells(self) -> int:
        """Spatial leaf cells (``res * res``)."""
        return self.res * self.res

    @property
    def n_words(self) -> int:
        """uint64 words per cell bitset."""
        return int(self.bits.shape[1])

    @property
    def node_counts(self) -> np.ndarray:
        """(n_nodes,) member segment count per supernode."""
        return np.diff(self.offsets)

    @property
    def cache_token(self) -> tuple[str, int, int, int, int]:
        """Identity of this pyramid build for query-plan cache keys — a
        rebuilt (or differently parameterized) pyramid must invalidate
        cached aggregate stages."""
        return (
            "pyr",
            id(self),
            self.res,
            self.n_tbuckets,
            self.packed.n_segments,
        )

    @property
    def nbytes(self) -> int:
        """Total bytes of the pyramid tables."""
        return sum(
            getattr(self, name).nbytes
            for name in (
                "node_of",
                "entries",
                "offsets",
                "bbox",
                "tstats",
                "bits",
                "level_bbox",
                "traj_start",
                "traj_dur",
            )
        )

    def __repr__(self) -> str:
        return (
            f"SummaryPyramid({self.res}x{self.res}x{self.n_tbuckets}, "
            f"levels={self.levels}, {self.packed.n_segments} segs, "
            f"{self.nbytes}B)"
        )

    # Lookups -------------------------------------------------------------
    def level_bboxes(self, level_index: int) -> np.ndarray:
        """(L*L, 4) cell bboxes of one coarsening level."""
        lo, hi = self.level_offsets[level_index], self.level_offsets[level_index + 1]
        return self.level_bbox[lo:hi]

    def cell_of_rows(self) -> np.ndarray:
        """(S,) spatial leaf cell of each segment row (cached)."""
        if self._cell_of_rows is None:
            cells = self.node_of.astype(np.int64) // self.n_tbuckets
            cells.setflags(write=False)
            self._cell_of_rows = cells
        return self._cell_of_rows

    def rows_in_cells(self, cells: np.ndarray) -> np.ndarray:
        """Segment rows of every supernode in the given spatial cells.

        All time buckets of one cell are adjacent in node space, so
        each cell contributes **one contiguous CSR range** — the gather
        is a vectorized multi-range slice, no per-segment Python loop.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if len(cells) == 0:
            return np.empty(0, dtype=np.int64)
        b = self.n_tbuckets
        starts = self.offsets[cells * b]
        stops = self.offsets[(cells + 1) * b]
        return self.entries[_multi_range_indices(starts, stops)]

    def trajectories_in_cells(self, cells: np.ndarray) -> np.ndarray:
        """(T,) bool — trajectories with any segment in the given cells,
        answered from the per-cell bitsets (no segment scan)."""
        n_traj = len(self.traj_start)
        out = np.zeros(n_traj, dtype=bool)
        cells = np.asarray(cells, dtype=np.int64)
        if len(cells) == 0:
            return out
        words = np.bitwise_or.reduce(self.bits[cells], axis=0)
        expanded = (
            words[:, None] >> np.arange(64, dtype=np.uint64)[None, :]
        ) & np.uint64(1)
        out[:] = expanded.ravel()[:n_traj].astype(bool)
        return out


def _axis_cells(
    lo: np.ndarray, hi: np.ndarray, origin: float, size: float, res: int
) -> np.ndarray:
    """(S,) int64 leaf-grid index along one axis of each segment's
    midpoint.  ``lo + hi`` adds the same two endpoint coordinates as
    ``a + b``, at most swapped, and float addition commutes, so this
    bins the midpoint ``0.5 * (a + b)`` bit for bit."""
    mid = lo + hi
    mid *= 0.5
    mid -= origin
    mid /= size
    np.floor(mid, out=mid)
    cells = mid.astype(np.int64)
    np.clip(cells, 0, res - 1, out=cells)
    return cells


def _multi_range_indices(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], stops[i])`` without a Python loop."""
    lens = stops - starts
    keep = lens > 0
    if not keep.all():
        starts, stops, lens = starts[keep], stops[keep], lens[keep]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    if len(starts) > 1:
        boundaries = np.cumsum(lens)[:-1]
        steps[boundaries] = starts[1:] - stops[:-1] + 1
    return np.cumsum(steps)


def _validate_shape(res: int, n_tbuckets: int, levels: tuple[int, ...]) -> None:
    if res < 1:
        raise ValueError("res must be >= 1")
    if n_tbuckets < 1:
        raise ValueError("n_tbuckets must be >= 1")
    if not levels or levels[-1] != res:
        raise ValueError("levels must end at the leaf resolution")
    if list(levels) != sorted(set(levels)):
        raise ValueError("levels must be strictly increasing")
    for lv in levels:
        if lv < 1 or res % lv:
            raise ValueError(f"level {lv} does not divide the leaf res {res}")
