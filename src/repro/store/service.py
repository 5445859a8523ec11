"""Process-wide dataset service and per-user session views.

The multi-session split of the former one-user application object:

* :class:`DatasetService` owns what is expensive and immutable-ish —
  **one** dataset, **one** packed segment view, **one** summary
  pyramid, **one** sharded stage cache — published as immutable per-epoch
  :class:`~repro.store.snapshot.EpochSnapshot` objects.  Each
  shared-memory store (:class:`~repro.store.arena.SharedArenaStore`)
  that :meth:`~DatasetService.publish_store` makes belongs to the
  snapshot that was active when it was published, and lives exactly as
  long as that snapshot.

* :class:`SessionView` is what is cheap and per-user — a brush canvas,
  a time window, a layout/paging state, an event journal — layered over
  a pinned epoch snapshot.  N concurrent views return exactly what N
  independent single-user engines would, while the process holds
  exactly one copy of the packed arrays (the encube render-node model:
  shared resident data, per-session query state).

Lock discipline (the multi-tenant tentpole).  **Queries never take the
service lock.**  Everything a query reads is epoch-immutable between
publishes — the dataset, the packed arrays, the summary pyramid — so
the read path is:

1. resolve the active snapshot with one atomic attribute read
   (``service._active``; sessions do this once, at pin time);
2. run the engine against it lock-free (per-call state on the stack,
   stage outputs through the thread-safe sharded
   :class:`~repro.core.plan.cache.StageCache`).

The service's re-entrant lock survives **only for mutations**: store
publish, epoch rollover (the atomic snapshot swap), and session
lifecycle registry bookkeeping.  Pin/retire accounting itself is
lock-free (GIL-atomic refcounts, :mod:`repro.store.snapshot`), so even
session open/rebind touches the lock only to read the snapshot
registry.  Reprolint RL003 machine-checks both halves: the query-path
methods must not acquire the lock, and registry mutations must happen
under it.

Epoch lifecycle (streaming ingest, :mod:`repro.store.ingest`): a
session *pins* the active snapshot at creation and keeps querying that
epoch's dataset/engine even after a rollover publishes a new epoch —
its results stay exact, merely flagged ``stale-epoch`` on the
:class:`DegradationReport` so callers know a fresher epoch exists (call
:meth:`SessionView.rebind` to move up).  An epoch's shared-memory
stores are never unlinked while a session pins it: a snapshot retires
— exactly once, via the sealed-zero refcount — when it is neither
active nor pinned, and its stores are unlinked then.  The swap itself
(:meth:`DatasetService._swap_active`) is the commit point of the
two-phase rollover and is only ever called by
:class:`~repro.store.ingest.RolloverCoordinator` (reprolint RL008).

Typical multi-session use::

    service = DatasetService(dataset)
    alice = service.session(viewport)
    bob = service.session(viewport, layout_key="2")
    alice.brush(stroke); bob.set_time_window(TimeWindow.end(0.25))
    r_a, r_b = alice.run_query("red"), bob.run_query("red")

and for the tile owners of a pooled renderer::

    handle = service.publish_store()          # O(dataset) once per epoch
    render_viewport_parallel(..., store=handle)  # O(handle bytes) per owner
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.plan.cache import StageCache
from repro.core.result import QueryResult
from repro.core.session import ExplorationSession
from repro.display.viewport import Viewport
from repro.resilience.health import DegradationReport
from repro.store.arena import SharedArenaStore, StoreHandle
from repro.store.snapshot import AtomicCounter, EpochSnapshot
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["SharedQueryEngine", "DatasetService", "SessionView"]


class SharedQueryEngine(CoordinatedBrushingEngine):
    """An engine safe to share across concurrent sessions — lock-free.

    Identical results to the base engine; the difference is the stage
    cache.  Queries take **no lock**: the dataset, packed arrays, and
    summary pyramid are immutable after construction, every per-query
    intermediate lives on the calling thread's stack, and stage outputs
    flow through a :class:`~repro.core.plan.cache.StageCache` striped
    over ``cache_shards`` shards, whose per-shard locks are the only
    (micro, bounded) critical sections on the path.  N threads
    hammering one engine interleave freely and each observes exactly
    what a private engine would have computed.

    (Before the snapshot refactor this class serialized every query
    behind the service RLock — the ~24x 8-session wall-clock penalty
    BENCH_Q3 measured.  The ``service.lock.wait_seconds`` gauge that
    tracked that queueing is gone with the lock; the
    ``service.snapshot.*`` family replaces it.)
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        *,
        cache: StageCache | None = None,
        cache_capacity: int = 512,
        cache_shards: int = 8,
        **engine_kwargs: Any,
    ) -> None:
        if cache is None:
            cache = StageCache(cache_capacity, shards=cache_shards)
        super().__init__(dataset, cache=cache, **engine_kwargs)


class SessionView(ExplorationSession):
    """One user's lightweight state over a shared :class:`DatasetService`.

    Owns everything mutable per user — canvas, time window, layout,
    paging, groups, event log, optional on-disk journal — and nothing
    heavy: the dataset, packed arrays, summary pyramid, and stage cache
    all live in (and are shared through) the pinned epoch snapshot.
    Created via :meth:`DatasetService.session`.

    The view pins the service's *active snapshot* at creation (one
    atomic reference read + one GIL-atomic refcount increment — no
    lock): rollovers never yank the dataset out from under it.  Queries
    issued after a rollover still answer exactly over the pinned epoch,
    flagged ``stale-epoch`` on their degradation report;
    :meth:`rebind` moves the view to the current snapshot.  The pin is
    released by :meth:`close` or, failing that, by garbage collection.
    """

    def __init__(
        self,
        service: "DatasetService",
        viewport: Viewport,
        *,
        layout_key: str = "3",
        journal_path: str | Path | None = None,
    ) -> None:
        self.service = service
        self.session_id = service._next_session_id()
        snapshot = service._pin_active()
        self._snapshot: EpochSnapshot | None = snapshot
        self.epoch = snapshot.epoch
        # the pin outlives mistakes: explicit close() releases it, and a
        # view dropped without close() releases it at collection time.
        # The finalizer carries only the epoch *number* — holding the
        # snapshot object there would keep its dataset and engine alive
        # past the release.
        self._pin = weakref.finalize(
            self, service._detach_session, snapshot.epoch
        )
        # journal_durable=False: the service-tier journal is an audit
        # trail, not the system of record, and replay tolerates a torn
        # tail — a per-query fsync on the lock-free path is the exact
        # blocking call RL009 exists to catch (the rule's allowlist on
        # SessionJournal.append documents this flag; see DESIGN.md §14)
        super().__init__(
            snapshot.dataset,
            viewport,
            layout_key=layout_key,
            journal_path=journal_path,
            journal_durable=False,
            engine=snapshot.engine,
        )

    def run_query(
        self, color: str = "red", *, deadline_s: float | None = None
    ) -> QueryResult:
        """Session-attributed query over the view's pinned snapshot.

        Entirely lock-free: the pinned snapshot's engine does the work,
        and the staleness probe is one atomic read of the service's
        active snapshot.  When a rollover has moved the service past
        the pinned epoch the (still exact) result is marked degraded
        with a ``stale-epoch`` event instead of failing, so a query
        racing a rollover always completes.
        """
        result = super().run_query(color, deadline_s=deadline_s)
        obs.counter_add("session.queries", 1, session=self.session_id)
        obs.counter_add("service.snapshot.queries", 1, epoch=self.epoch)
        active = self.service.active_epoch()
        if active != self.epoch:
            report = result.degradation or DegradationReport()
            report.record(
                "stale-epoch",
                scope="session",
                action="served-old-epoch",
                detail=(
                    f"session pinned epoch {self.epoch}, service rolled "
                    f"over to {active}; rebind() to move up"
                ),
            )
            result = replace(result, degraded=True, degradation=report)
            obs.counter_add("session.stale_queries", 1, session=self.session_id)
        return result

    def rebind(self) -> bool:
        """Re-pin this view to the service's current active snapshot.

        Returns True when the view actually moved (a rollover had
        happened); False when it was already current.  Moving re-derives
        the layout assignment over the new dataset and releases the old
        snapshot's pin — if this view was the last one holding the old
        epoch, its stores are unlinked.
        """
        snapshot = self.service._pin_active()
        if snapshot.epoch == self.epoch:
            self.service._detach_session(snapshot.epoch)
            return False
        old_epoch = self.epoch
        old_pin = self._pin
        self._snapshot = snapshot
        self.dataset = snapshot.dataset
        self.engine = snapshot.engine
        self.epoch = snapshot.epoch
        self._pin = weakref.finalize(
            self, self.service._detach_session, snapshot.epoch
        )
        self._reassign()
        old_pin()  # release the old epoch (idempotent one-shot)
        obs.counter_add("session.rebinds", 1, session=self.session_id)
        self._log("rebind", from_epoch=old_epoch, epoch=snapshot.epoch)
        return True

    def close(self) -> None:
        """Close the journal and release this view's snapshot pin.

        Idempotent.  After close the view is unusable: its epoch may be
        retired (and its stores unlinked) as soon as the pin is
        released.  The dataset/engine/snapshot references are dropped
        *before* the pin, so a retired epoch keeps no arrays alive
        through this view.
        """
        super().close()
        self.dataset = None  # type: ignore[assignment]
        self.engine = None  # type: ignore[assignment]
        self._snapshot = None
        self._pin()

    def __repr__(self) -> str:
        name = self.dataset.name if self.dataset is not None else "<closed>"
        return (
            f"SessionView(#{self.session_id}, dataset={name!r}, "
            f"epoch={self.epoch}, {len(self.events)} events)"
        )


class DatasetService:
    """Process-wide owner of one dataset's heavy, shareable state.

    Parameters
    ----------
    dataset:
        The trajectory collection to serve (non-empty).
    use_index:
        Build the shared engine's summary pyramid (``False`` serves
        every query by brute force).
    cache_capacity:
        Shared stage-cache size; sized up from the single-user default
        because N sessions' stages compete for it.
    cache_shards:
        Stripe count of the shared :class:`StageCache`; more shards,
        less contention between concurrent sessions' stage lookups.

    Attributes
    ----------
    dataset / engine:
        Read-only views of the *active snapshot's* dataset and engine.
        They cannot be assigned — retargeting the service goes through
        :meth:`_swap_active` (rollover) only, which is what keeps the
        active reference a single atomic publish (reprolint RL008).
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        *,
        use_index: bool = True,
        cache_capacity: int = 512,
        cache_shards: int = 8,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("cannot serve an empty dataset")
        self._lock = threading.RLock()
        engine = SharedQueryEngine(
            dataset,
            use_index=use_index,
            cache_capacity=cache_capacity,
            cache_shards=cache_shards,
        )
        self._use_index = use_index
        self._n_sessions = 0
        self._closed = False
        self._pin_total = AtomicCounter()
        snapshot = EpochSnapshot(dataset.epoch, dataset, engine)
        self._snapshots: dict[int, EpochSnapshot] = {snapshot.epoch: snapshot}
        self._active: EpochSnapshot = snapshot
        obs.counter_add("service.snapshot.published", 1)
        obs.gauge_set("service.snapshot.active_epoch", float(snapshot.epoch))
        obs.gauge_set("service.snapshot.live", 1.0)

    # Active-snapshot views --------------------------------------------------
    @property
    def dataset(self) -> TrajectoryDataset:
        """The active snapshot's dataset (atomic read, never assignable)."""
        return self._active.dataset

    @property
    def engine(self) -> SharedQueryEngine:
        """The active snapshot's engine (atomic read, never assignable)."""
        return self._active.engine

    # Sessions -------------------------------------------------------------
    def session(
        self,
        viewport: Viewport | None = None,
        *,
        layout_key: str = "3",
        journal_path: str | Path | None = None,
    ) -> SessionView:
        """Open a new lightweight per-user session view.

        ``viewport`` defaults to the paper's 2/3-surface wall preset
        (the same default :class:`~repro.app.TrajectoryExplorer` uses).
        The view pins the current active snapshot until closed/collected.
        """
        self._check_open()
        if viewport is None:
            from repro.display.presets import CYBER_COMMONS, paper_viewport

            viewport = paper_viewport(CYBER_COMMONS)
        view = SessionView(
            self, viewport, layout_key=layout_key, journal_path=journal_path
        )
        obs.counter_add("service.sessions.opened", 1)
        return view

    def _next_session_id(self) -> int:
        """Service-scoped session ids (1, 2, ...): two independent
        services number their sessions identically, so replaying a
        recorded session into a fresh explorer reproduces its state
        byte-for-byte (``status()`` includes the id)."""
        with self._lock:
            self._n_sessions += 1
            return self._n_sessions

    @property
    def n_sessions(self) -> int:
        """Number of session views opened over this service."""
        with self._lock:
            return self._n_sessions

    # Epoch lifecycle --------------------------------------------------------
    def active_epoch(self) -> int:
        """The epoch new sessions pin (bumped by each rollover swap).

        Lock-free: one atomic read of the active snapshot reference —
        this sits on the per-query staleness probe, so it must never
        queue behind a publish.
        """
        return self._active.epoch

    def _pin_active(self) -> EpochSnapshot:
        """Resolve and pin the active snapshot — no lock.

        One atomic reference read plus one GIL-atomic refcount
        increment.  The only retry is losing a race against the
        retirement of a *just-replaced* snapshot (the sealed-zero
        protocol in :mod:`repro.store.snapshot`): the loop then
        re-resolves and lands on the successor.
        """
        while True:
            snapshot = self._active
            if snapshot.try_pin():
                self._pin_total.incr()
                obs.counter_add("service.snapshot.pinned", 1)
                obs.gauge_set(
                    "service.snapshot.pins", float(self._pin_total.value)
                )
                return snapshot
            if self._closed:
                raise RuntimeError("DatasetService is closed")
            # lost the pin race to a retirement mid-rollover: re-resolve

    def _detach_session(self, epoch: int) -> None:
        """Release one session's pin on ``epoch``.

        The last pin out retires a non-active snapshot (unlinking its
        stores), and on a closed service also the active one.  Receives
        the epoch *number* (what the session finalizer holds).
        """
        with self._lock:
            snapshot = self._snapshots.get(epoch)
        if snapshot is None:  # pragma: no cover - pins keep epochs registered
            return
        snapshot.unpin()
        self._pin_total.decr()
        obs.counter_add("service.snapshot.released", 1)
        obs.gauge_set("service.snapshot.pins", float(self._pin_total.value))
        for store in self._retire_if_idle(snapshot):
            store.unlink()
            store.close()

    def _retire_if_idle(self, snapshot: EpochSnapshot) -> list[SharedArenaStore]:
        """Retire one snapshot iff it is unpinned and non-active.

        Exactly-once: the sealed-zero refcount arbitrates racing
        retirers (and racing pins — see :mod:`repro.store.snapshot`).
        Returns the snapshot's stores, which it owns, for the caller to
        unlink *outside* any lock.
        """
        if snapshot.pins > 0:
            return []
        if snapshot is self._active and not self._closed:
            return []
        if not snapshot.refs.seal_if_idle():
            return []
        obs.counter_add("service.snapshot.retired", 1)
        with self._lock:
            self._snapshots.pop(snapshot.epoch, None)
            obs.gauge_set("service.snapshot.live", float(len(self._snapshots)))
            return list(snapshot.stores)

    def _swap_active(
        self, dataset: TrajectoryDataset, engine: SharedQueryEngine
    ) -> int:
        """Commit point of a rollover: atomically publish a new snapshot.

        **Only** :class:`~repro.store.ingest.RolloverCoordinator` may
        call this (reprolint RL008): the coordinator owns the staging
        phase that makes the swap safe.  Under the lock: the staged
        (dataset, engine) are registered as a new
        :class:`EpochSnapshot` and the active reference is retargeted
        with a single atomic assignment — from that instant every new
        pin lands on the successor, while in-flight sessions keep their
        pinned snapshot and finish there.  Zero-pin old snapshots
        retire, and their stores are unlinked outside the lock.
        """
        t_swap = time.perf_counter()
        victims: list[SharedArenaStore] = []
        with self._lock:
            self._check_open()
            epoch = dataset.epoch
            active = self._active
            if epoch <= active.epoch:
                raise ValueError(
                    f"rollover epoch {epoch} must exceed active epoch "
                    f"{active.epoch}"
                )
            snapshot = EpochSnapshot(epoch, dataset, engine)
            self._snapshots[epoch] = snapshot
            # the publish: one atomic reference assignment.  Readers
            # (_pin_active, active_epoch) see either the old snapshot
            # or this one, never anything in between.
            self._active = snapshot
            obs.counter_add("service.snapshot.published", 1)
            obs.gauge_set("service.snapshot.active_epoch", float(epoch))
            obs.gauge_set("service.snapshot.live", float(len(self._snapshots)))
            for old in [
                s for s in list(self._snapshots.values()) if s is not snapshot
            ]:
                victims.extend(self._retire_if_idle(old))
        obs.observe("rollover.swap_seconds", time.perf_counter() - t_swap)
        for old_store in victims:
            old_store.unlink()
            old_store.close()
        return epoch

    def _engine_for_epoch(self, dataset: TrajectoryDataset) -> SharedQueryEngine:
        """Build a successor-epoch engine sharing this service's sharded
        stage cache (epoch-tagged keys keep entries disjoint).

        The expensive part — packing + pyramid build — runs outside the
        lock; only the cache snapshot is serialized.
        """
        with self._lock:
            cache = self.engine.cache
        return SharedQueryEngine(dataset, cache=cache, use_index=self._use_index)

    # Stores -------------------------------------------------------------
    def publish_store(self) -> StoreHandle:
        """Publish (or reuse) a shared-memory store of the active
        dataset epoch and return its handle.

        Idempotent per dataset epoch: repeated calls while the dataset
        is unchanged return the same handle.  The store belongs to the
        active snapshot and lives exactly as long as it: a session
        pinning the snapshot keeps the store attachable, and the store
        is unlinked when the snapshot retires (its handle then fails to
        attach with a stale-handle error rather than serving stale
        segments).
        """
        with self._lock:
            # checked under the lock: a publish racing close() either
            # lands first, and close() then retires its store with the
            # snapshot, or raises here
            self._check_open()
            active = self._active
            epoch = active.dataset.epoch
            for store in reversed(active.stores):
                if store.epoch == epoch:
                    return store.handle
            t_pub = time.perf_counter()
            store = SharedArenaStore.publish(active.dataset)
            obs.observe("store.publish.seconds", time.perf_counter() - t_pub)
            obs.counter_add("store.publishes", 1)
            active.stores.append(store)
            return store.handle

    # Introspection ----------------------------------------------------------
    def stats(self) -> dict:
        """Service health: sessions, snapshots, the stores of live
        snapshots, shared-cache counters."""
        with self._lock:
            stores = [st for snap in self._snapshots.values() for st in snap.stores]
            return {
                "dataset": self.dataset.name,
                "n_traj": len(self.dataset),
                "epoch": self.dataset.epoch,
                "active_epoch": self.active_epoch(),
                "epochs": {
                    e: s.pins for e, s in sorted(self._snapshots.items())
                },
                "pins": self._pin_total.value,
                "sessions": self._n_sessions,
                "stores": [s.uid[:8] for s in stores],
                "store_bytes": sum(s.nbytes for s in stores),
                "cache": self.engine.cache_stats(),
            }

    def __repr__(self) -> str:
        with self._lock:
            count = sum(len(s.stores) for s in self._snapshots.values())
            return (
                f"DatasetService({self.dataset.name!r}, "
                f"sessions={self._n_sessions}, stores={count}, "
                f"epoch={self._active.epoch})"
            )

    # Lifecycle --------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("DatasetService is closed")

    def close(self) -> None:
        """Retire every idle snapshot and unlink its stores
        (idempotent); the in-process engine and existing sessions stay
        usable, and no new session opens and no store is published.

        A pinned snapshot retires, and its stores are unlinked, at its
        last detach.
        """
        if self._closed:
            return
        self._closed = True
        victims: list[SharedArenaStore] = []
        with self._lock:
            for snapshot in list(self._snapshots.values()):
                victims.extend(self._retire_if_idle(snapshot))
            deferred = sum(len(s.stores) for s in self._snapshots.values())
        for store in victims:
            store.unlink()
            store.close()
        if deferred:
            obs.counter_add("service.close.deferred", deferred)

    def __enter__(self) -> "DatasetService":
        """Context-manage the service (close on exit)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Close the service."""
        self.close()
