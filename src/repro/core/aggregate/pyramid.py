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

    Build with :meth:`build` (vectorized, one counting sort).  All
    arrays are read-only after construction — a pyramid is published
    into epoch snapshots and read lock-free by concurrent sessions,
    exactly like the packed view it summarizes.

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
        """Summarize ``packed`` into a fresh pyramid (one pass, no
        Python loop over segments)."""
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

        # grid geometry over segment endpoint extents, padded so
        # boundary points land strictly inside
        seg_lo = np.minimum(packed.a, packed.b)
        seg_hi = np.maximum(packed.a, packed.b)
        lo_pt = seg_lo.min(axis=0)
        hi_pt = seg_hi.max(axis=0)
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
        mid = 0.5 * (packed.a + packed.b)
        cells2 = np.floor((mid - self.lo) / self.cell_size).astype(np.int64)
        np.clip(cells2, 0, res - 1, out=cells2)
        cell = cells2[:, 1] * res + cells2[:, 0]

        starts_of = self.traj_start[packed.owner]
        durs_of = self.traj_dur[packed.owner]
        tmid = 0.5 * (packed.t0 + packed.t1)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (tmid - starts_of) / durs_of
        tb = np.zeros(packed.n_segments, dtype=np.int64)
        good = np.isfinite(frac)
        np.floor(frac * n_tbuckets, out=frac, where=good)
        tb[good] = frac[good].astype(np.int64)
        np.clip(tb, 0, n_tbuckets - 1, out=tb)

        node = cell * n_tbuckets + tb
        n_nodes = res * res * n_tbuckets
        self.node_of = node.astype(np.int32)

        # CSR over nodes via one stable counting sort
        order = np.argsort(node, kind="stable")
        self.entries = order.astype(np.int64)
        counts = np.bincount(node, minlength=n_nodes)
        self.offsets = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        has = counts > 0
        occ_starts = self.offsets[:-1][has]

        def _stat(arr: np.ndarray, op: np.ufunc, empty: float) -> np.ndarray:
            # Reduce over occupied nodes only: consecutive occupied
            # starts tile the sorted positions exactly (empty nodes are
            # zero-width in CSR) and the final run extends to the end
            # of the array.  Clamping all offsets into range instead
            # would hand reduceat a start == stop pair for the last
            # occupied node, silently dropping its final member.
            out = np.full(n_nodes, empty, dtype=np.float64)
            out[has] = op.reduceat(arr[order], occ_starts)
            return out

        # per-node bbox over full segment extents (not just midpoints)
        self.bbox = np.column_stack(
            [
                _stat(seg_lo[:, 0], np.minimum, np.inf),
                _stat(seg_lo[:, 1], np.minimum, np.inf),
                _stat(seg_hi[:, 0], np.maximum, -np.inf),
                _stat(seg_hi[:, 1], np.maximum, -np.inf),
            ]
        )

        # temporal stats: absolute extents are exact; fractional ones
        # carry division rounding and are only ever used with margins
        with np.errstate(divide="ignore", invalid="ignore"):
            g0 = (packed.t0 - starts_of) / durs_of
            g1 = (packed.t1 - starts_of) / durs_of
        bad = ~(np.isfinite(g0) & np.isfinite(g1))
        if bad.any():
            g0 = np.where(bad, np.nan, g0)
            g1 = np.where(bad, np.nan, g1)
        self.tstats = np.column_stack(
            [
                _stat(packed.t0, np.minimum, np.inf),
                _stat(packed.t0, np.maximum, -np.inf),
                _stat(packed.t1, np.minimum, np.inf),
                _stat(packed.t1, np.maximum, -np.inf),
                _stat(g0, np.minimum, np.inf),
                _stat(g0, np.maximum, -np.inf),
                _stat(g1, np.minimum, np.inf),
                _stat(g1, np.maximum, -np.inf),
            ]
        )

        # per-cell trajectory bitsets (cells, not nodes: at 100x scale
        # per-node bitsets would be n_tbuckets times larger for no
        # classification gain)
        n_cells = res * res
        n_words = (n_traj + 63) // 64
        bits = np.zeros((n_cells, n_words), dtype=np.uint64)
        pair = np.unique(cell * np.int64(n_traj) + packed.owner)
        p_cell = pair // n_traj
        p_owner = pair % n_traj
        np.bitwise_or.at(
            bits,
            (p_cell, p_owner >> 6),
            np.uint64(1) << (p_owner.astype(np.uint64) & np.uint64(63)),
        )
        self.bits = bits

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
