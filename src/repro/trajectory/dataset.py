"""Trajectory dataset container.

A :class:`TrajectoryDataset` holds the full collection of tracked
trajectories (~500 in the paper's study) together with a *packed*
columnar view of all segments, which is what the vectorized
coordinated-brushing engine operates on: one flat array of segment
endpoints/timestamps plus an ownership index, instead of a Python loop
over trajectory objects.  The packed view is built lazily and cached.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.trajectory.model import Trajectory, TrajectoryMeta

__all__ = ["PackedSegments", "TrajectoryDataset"]


class PackedSegments:
    """Columnar view of every segment of every trajectory in a dataset.

    Attributes
    ----------
    a, b:
        (S, 2) segment start/end positions (arena meters).
    t0, t1:
        (S,) segment start/end timestamps.
    owner:
        (S,) int32 index of the owning trajectory within the dataset.
    offsets:
        (T+1,) int64 prefix offsets: trajectory ``i`` owns segment rows
        ``offsets[i]:offsets[i+1]``.
    """

    __slots__ = ("a", "b", "t0", "t1", "owner", "offsets")

    def __init__(self, trajectories: Sequence[Trajectory]) -> None:
        counts = np.fromiter(
            (t.n_samples - 1 for t in trajectories), dtype=np.int64, count=len(trajectories)
        )
        total = int(counts.sum())
        self.offsets = np.zeros(len(trajectories) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.a = np.empty((total, 2), dtype=np.float64)
        self.b = np.empty((total, 2), dtype=np.float64)
        self.t0 = np.empty(total, dtype=np.float64)
        self.t1 = np.empty(total, dtype=np.float64)
        self.owner = np.empty(total, dtype=np.int32)
        for i, traj in enumerate(trajectories):
            lo, hi = self.offsets[i], self.offsets[i + 1]
            sa, sb = traj.segments()
            st0, st1 = traj.segment_times()
            self.a[lo:hi] = sa
            self.b[lo:hi] = sb
            self.t0[lo:hi] = st0
            self.t1[lo:hi] = st1
            self.owner[lo:hi] = i
        for arr in (self.a, self.b, self.t0, self.t1, self.owner, self.offsets):
            arr.setflags(write=False)

    @classmethod
    def from_arrays(
        cls,
        *,
        a: np.ndarray,
        b: np.ndarray,
        t0: np.ndarray,
        t1: np.ndarray,
        owner: np.ndarray,
        offsets: np.ndarray,
    ) -> "PackedSegments":
        """Adopt pre-materialized columnar arrays without copying.

        This is the zero-copy rebuild path for shared-memory attachment
        (:mod:`repro.store`): the arrays are taken as-is — typically
        views into a shared block — validated for mutual consistency,
        and marked read-only.
        """
        n = len(owner)
        if not (len(a) == len(b) == len(t0) == len(t1) == n):
            raise ValueError("packed arrays disagree on segment count")
        if len(offsets) < 1 or int(offsets[-1]) != n:
            raise ValueError(
                f"offsets end at {offsets[-1] if len(offsets) else '??'}, "
                f"expected {n}"
            )
        packed = cls.__new__(cls)
        packed.a = a
        packed.b = b
        packed.t0 = t0
        packed.t1 = t1
        packed.owner = owner
        packed.offsets = offsets
        for arr in (a, b, t0, t1, owner, offsets):
            arr.setflags(write=False)
        return packed

    @property
    def n_segments(self) -> int:
        return len(self.owner)

    def rows_of(self, traj_index: int) -> slice:
        """Row slice owned by trajectory ``traj_index``."""
        return slice(int(self.offsets[traj_index]), int(self.offsets[traj_index + 1]))


class TrajectoryDataset:
    """An ordered collection of :class:`Trajectory` objects.

    Supports iteration, indexing, metadata-predicate selection, and a
    cached packed-segment view for batch queries.  Datasets are
    append-only; any mutation invalidates the packed cache.
    """

    def __init__(self, trajectories: Iterable[Trajectory] = (), name: str = "dataset") -> None:
        self.name = name
        self._trajs: list[Trajectory] = []
        self._packed: PackedSegments | None = None
        self._epoch = 0
        for t in trajectories:
            self.append(t)

    @classmethod
    def from_attached(
        cls,
        trajectories: Sequence[Trajectory],
        packed: PackedSegments,
        *,
        name: str,
        epoch: int,
    ) -> "TrajectoryDataset":
        """Assemble a dataset around pre-built (typically shared-memory
        view) trajectories and packed arrays without re-packing.

        Used by :mod:`repro.store` attachment: ``epoch`` restores the
        publisher's mutation epoch.  Appending to the result bumps it,
        like any mutation.
        """
        if len(trajectories) + 1 != len(packed.offsets):
            raise ValueError(
                f"{len(trajectories)} trajectories vs "
                f"{len(packed.offsets) - 1} packed ownership ranges"
            )
        ds = cls.__new__(cls)
        ds.name = name
        ds._trajs = list(trajectories)
        ds._packed = packed
        ds._epoch = int(epoch)
        return ds

    # Container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._trajs)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._trajs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TrajectoryDataset(self._trajs[index], name=self.name)
        return self._trajs[index]

    def __repr__(self) -> str:
        return f"TrajectoryDataset({self.name!r}, n={len(self)})"

    # Mutation ----------------------------------------------------------
    def append(self, traj: Trajectory) -> None:
        """Append a trajectory, assigning its dataset-local id if unset."""
        if not isinstance(traj, Trajectory):
            raise TypeError(f"expected Trajectory, got {type(traj).__name__}")
        if traj.traj_id < 0:
            traj.traj_id = len(self._trajs)
        self._trajs.append(traj)
        self._packed = None
        self._epoch += 1

    @property
    def epoch(self) -> int:
        """Monotone mutation epoch: bumped by every append (including
        loader quarantine paths), so query-stage caches keyed on it can
        never serve masks computed over an older segment set."""
        return self._epoch

    def extend(self, trajs: Iterable[Trajectory]) -> None:
        """Append many trajectories."""
        for t in trajs:
            self.append(t)

    # Selection ---------------------------------------------------------
    def select(self, predicate: Callable[[Trajectory], bool]) -> "TrajectoryDataset":
        """New dataset with trajectories satisfying ``predicate``.

        Trajectory ids are preserved (they keep pointing at the parent
        dataset's numbering) so group bins remain traceable to the raw
        data — mirroring the paper's per-group filters.
        """
        return TrajectoryDataset(
            (t for t in self._trajs if predicate(t)), name=f"{self.name}|filtered"
        )

    def indices_where(self, predicate: Callable[[Trajectory], bool]) -> np.ndarray:
        """Indices (into this dataset) of trajectories matching ``predicate``."""
        return np.fromiter(
            (i for i, t in enumerate(self._trajs) if predicate(t)), dtype=np.int64
        )

    def by_zone(self, zone: str) -> "TrajectoryDataset":
        """Trajectories captured in the given zone (on/east/west/north/south)."""
        return self.select(lambda t: t.meta.capture_zone == zone)

    def zones(self) -> dict[str, int]:
        """Histogram of capture zones."""
        out: dict[str, int] = {}
        for t in self._trajs:
            out[t.meta.capture_zone] = out.get(t.meta.capture_zone, 0) + 1
        return out

    # Aggregate properties ----------------------------------------------
    @property
    def total_samples(self) -> int:
        return sum(t.n_samples for t in self._trajs)

    @property
    def total_segments(self) -> int:
        return sum(t.n_samples - 1 for t in self._trajs)

    def duration_range(self) -> tuple[float, float]:
        """(min, max) trajectory duration in seconds."""
        if not self._trajs:
            return (0.0, 0.0)
        durs = [t.duration for t in self._trajs]
        return (min(durs), max(durs))

    def time_extent(self) -> tuple[float, float]:
        """Global (earliest, latest) timestamp across trajectories."""
        if not self._trajs:
            return (0.0, 0.0)
        return (
            min(float(t.times[0]) for t in self._trajs),
            max(float(t.times[-1]) for t in self._trajs),
        )

    def packed(self) -> PackedSegments:
        """Cached columnar segment view for vectorized queries."""
        if self._packed is None:
            self._packed = PackedSegments(self._trajs)
        return self._packed

    def metas(self) -> list[TrajectoryMeta]:
        """Metadata records in dataset order."""
        return [t.meta for t in self._trajs]
