"""Crash-safe streaming ingest with epoch rollover.

The wall serves queries continuously; new trajectories arrive
continuously.  This module splits the two concerns so neither blocks
the other:

* :class:`IngestBuffer` — a small, thread-safe staging area.  Producers
  :meth:`~IngestBuffer.append` trajectories at any rate; nothing the
  query path touches changes.  Every buffered trajectory carries a
  monotone *sequence number*, which is what makes recovery exact (see
  below).

* :class:`RolloverCoordinator` — drains the buffer in batches and
  publishes the service's dataset under a new epoch in two phases:

  1. *Stage* (outside the service lock): build the successor dataset
     (old trajectories + batch), pack it, and build its engine (and
     with it the epoch's summary pyramid) over the shared stage cache.
  2. *Swap* (under the service lock): one call to
     :meth:`DatasetService._swap_active` atomically retargets the
     service's active dataset/engine (the only sanctioned caller of
     that method — reprolint RL008).

  The rollover publishes no shared-memory store: a tile owner that
  needs one asks :meth:`DatasetService.publish_store`, and the store
  lives as long as the epoch it was published from.  In-flight
  sessions keep querying their pinned epoch.  The shared, epoch-tagged
  :class:`~repro.core.plan.cache.StageCache` needs no flush: new-epoch
  keys cannot collide with old-epoch entries.

Crash safety is sequence-number bookkeeping, not magic.  The buffer
only forgets trajectories when the coordinator *commits* them
(:meth:`IngestBuffer.commit_through`) — which happens strictly after
the swap.  A coordinator that dies anywhere in stage→swap leaves the
buffer intact, so a restarted rollover re-ingests the same batch; a
coordinator that dies *between* swap and commit would double-ingest,
so the coordinator records the swapped high-water mark
(``_swapped_seq``) in the same instant the swap returns and trims any
already-swapped prefix from the next batch.  The chaos harness
(:mod:`repro.resilience.chaos`) drives exactly these interleavings.

The coordinator is single-threaded by contract: one coordinator per
service, :meth:`~RolloverCoordinator.rollover` never called
concurrently with itself.  (Concurrent *queries* are the whole point
and are fine.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory

if TYPE_CHECKING:
    from repro.store.service import DatasetService, SharedQueryEngine

__all__ = [
    "IngestBatch",
    "IngestBuffer",
    "RolloverCoordinator",
    "RolloverResult",
]


@dataclass(frozen=True)
class IngestBatch:
    """An immutable snapshot of buffered trajectories.

    ``seq_lo``/``seq_hi`` are the (inclusive/exclusive) sequence
    numbers of the snapshot: trajectory ``i`` of the batch is sequence
    ``seq_lo + i``.  Sequence numbers are the recovery currency — a
    batch can be re-snapshotted, partially swapped, and trimmed without
    ever identifying trajectories by object identity.
    """

    seq_lo: int
    seq_hi: int
    trajectories: tuple[Trajectory, ...]

    def __post_init__(self) -> None:
        if self.seq_hi - self.seq_lo != len(self.trajectories):
            raise ValueError(
                f"batch spans [{self.seq_lo}, {self.seq_hi}) but holds "
                f"{len(self.trajectories)} trajectories"
            )

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def n_segments(self) -> int:
        """Total segments across the batched trajectories."""
        return sum(max(0, t.n_samples - 1) for t in self.trajectories)

    def tail_from(self, seq: int) -> "IngestBatch":
        """The sub-batch of sequences ``>= seq`` (recovery trim).

        A coordinator restarting after a crash between swap and commit
        calls this with its swapped high-water mark so already-ingested
        trajectories are committed, not re-ingested.
        """
        if seq <= self.seq_lo:
            return self
        lo = min(seq, self.seq_hi)
        return IngestBatch(lo, self.seq_hi, self.trajectories[lo - self.seq_lo :])


class IngestBuffer:
    """Thread-safe staging area between producers and the coordinator.

    Appends are O(1) and never touch the query path.  The buffer
    retains everything until :meth:`commit_through` — the coordinator's
    post-swap acknowledgement — so a failed rollover loses nothing.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._lock = threading.Lock()
        self._pending: list[Trajectory] = []
        self._next_seq = 0
        self._clock = clock
        self._oldest_pending_at: float | None = None

    def append(self, traj: Trajectory) -> int:
        """Buffer one trajectory; returns its sequence number."""
        with self._lock:
            if not self._pending:
                self._oldest_pending_at = self._clock()
            self._pending.append(traj)
            seq = self._next_seq
            self._next_seq += 1
        self._publish_gauges()
        return seq

    def extend(self, trajs: "list[Trajectory] | tuple[Trajectory, ...]") -> int:
        """Buffer several trajectories; returns the last sequence number
        assigned (or the next unassigned one when ``trajs`` is empty)."""
        with self._lock:
            if trajs and not self._pending:
                self._oldest_pending_at = self._clock()
            self._pending.extend(trajs)
            self._next_seq += len(trajs)
            seq = self._next_seq - 1
        self._publish_gauges()
        return seq

    def snapshot(self) -> IngestBatch | None:
        """An immutable batch of everything currently pending, or
        ``None`` when the buffer is empty.  Does not consume — only
        :meth:`commit_through` does."""
        with self._lock:
            if not self._pending:
                return None
            hi = self._next_seq
            trajs = tuple(self._pending)
            return IngestBatch(hi - len(trajs), hi, trajs)

    def commit_through(self, seq: int) -> int:
        """Forget every buffered trajectory with sequence ``<= seq``;
        returns how many were dropped.  Called by the coordinator only
        after the swap publishing those trajectories has committed."""
        with self._lock:
            lo = self._next_seq - len(self._pending)
            n_drop = max(0, min(seq - lo + 1, len(self._pending)))
            if n_drop:
                del self._pending[:n_drop]
                self._oldest_pending_at = (
                    self._clock() if self._pending else None
                )
        self._publish_gauges()
        return n_drop

    @property
    def n_pending(self) -> int:
        """Trajectories buffered and not yet committed."""
        with self._lock:
            return len(self._pending)

    @property
    def n_segments_pending(self) -> int:
        """Segments buffered and not yet committed."""
        with self._lock:
            return sum(max(0, t.n_samples - 1) for t in self._pending)

    def lag_seconds(self) -> float:
        """Age of the oldest uncommitted trajectory (0.0 when empty) —
        how far the published arena trails the stream."""
        with self._lock:
            if self._oldest_pending_at is None:
                return 0.0
            return max(0.0, self._clock() - self._oldest_pending_at)

    def _publish_gauges(self) -> None:
        with self._lock:
            n_seg = sum(max(0, t.n_samples - 1) for t in self._pending)
            lag = (
                max(0.0, self._clock() - self._oldest_pending_at)
                if self._oldest_pending_at is not None
                else 0.0
            )
        obs.gauge_set("ingest.buffered_segments", float(n_seg))
        obs.gauge_set("ingest.lag_seconds", lag)


@dataclass(frozen=True)
class RolloverResult:
    """What one successful rollover published."""

    epoch: int
    n_ingested: int
    stage_seconds: float
    swap_seconds: float
    recovered: bool = False
    faults: tuple[str, ...] = field(default_factory=tuple)


class RolloverCoordinator:
    """Drains an :class:`IngestBuffer` into a :class:`DatasetService`
    via two-phase epoch rollover.

    Parameters
    ----------
    service:
        The service whose active epoch is republished.  The coordinator
        is the **only** component that may call its ``_swap_active``
        (reprolint RL008).
    buffer:
        The staging buffer producers append to.
    chaos:
        Test-only hook called at each named rollover point
        (``pre_stage`` / ``post_stage`` / ``pre_swap`` / ``post_swap``)
        — the chaos harness raises from these to simulate crashes.
        ``None`` in production.
    """

    def __init__(
        self,
        service: "DatasetService",
        buffer: IngestBuffer,
        *,
        chaos: "Callable[[str], None] | None" = None,
    ) -> None:
        self.service = service
        self.buffer = buffer
        self._chaos = chaos
        # high-water mark of sequences already swapped into the service;
        # set in the same instant a swap returns, consulted at the next
        # rollover to trim an uncommitted-but-swapped prefix (the crash
        # window between swap and buffer commit)
        self._swapped_seq = -1
        self.n_rollovers = 0

    # -- internals ---------------------------------------------------------
    def _at(self, point: str) -> None:
        if self._chaos is not None:
            self._chaos(point)

    def _stage(
        self, batch: IngestBatch
    ) -> "tuple[TrajectoryDataset, SharedQueryEngine]":
        """Phase 1: build the successor epoch entirely off to the side.

        Nothing here holds the service lock or is visible to sessions;
        an exception at any point leaves the service exactly as it was.
        """
        base = self.service.dataset
        successor = TrajectoryDataset(
            list(base) + list(batch.trajectories), name=base.name
        )
        # one epoch bump per ingested trajectory keeps the epoch a
        # strictly monotone mutation counter across rollovers
        successor._epoch = base.epoch + len(batch)
        engine = self.service._engine_for_epoch(successor)
        return successor, engine

    def rollover(self) -> RolloverResult | None:
        """Drain the buffer and publish one new epoch.

        Returns ``None`` when there was nothing to ingest, otherwise a
        :class:`RolloverResult`.  On any staging or swap error the
        buffer keeps the batch and the exception propagates — the
        service continues serving the old epoch and a later call
        retries the same trajectories.
        """
        batch = self.buffer.snapshot()
        if batch is None:
            return None

        # recovery: a prior run may have swapped this prefix and died
        # before committing the buffer
        fresh = batch.tail_from(self._swapped_seq + 1)
        if len(fresh) == 0:
            self.buffer.commit_through(batch.seq_hi - 1)
            obs.counter_add("rollover.recovered", 1)
            return RolloverResult(
                epoch=self.service.active_epoch(),
                n_ingested=0,
                stage_seconds=0.0,
                swap_seconds=0.0,
                recovered=True,
            )

        self._at("pre_stage")
        t_stage = time.perf_counter()
        successor, engine = self._stage(fresh)
        stage_s = time.perf_counter() - t_stage
        try:
            self._at("post_stage")
            self._at("pre_swap")
            t_swap = time.perf_counter()
            epoch = self.service._swap_active(successor, engine)
            # the swap is now durable: record the high-water mark before
            # anything else can fail, so a crash before commit_through
            # trims (not re-ingests) this batch on the next rollover
            self._swapped_seq = fresh.seq_hi - 1
            swap_s = time.perf_counter() - t_swap
        except BaseException:
            # abort: the buffer still holds the batch, so nothing is
            # lost — the next rollover restages it
            obs.counter_add("rollover.aborted", 1)
            raise

        self.buffer.commit_through(fresh.seq_hi - 1)
        self.n_rollovers += 1
        obs.counter_add("rollover.count", 1)
        obs.observe("rollover.stage_seconds", stage_s)
        self._at("post_swap")
        return RolloverResult(
            epoch=epoch,
            n_ingested=len(fresh),
            stage_seconds=stage_s,
            swap_seconds=swap_s,
        )
