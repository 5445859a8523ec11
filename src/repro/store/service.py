"""Process-wide dataset service and per-user session views.

The multi-session split of the former one-user application object:

* :class:`DatasetService` owns what is expensive and immutable-ish —
  **one** dataset, **one** packed segment view, **one** summary
  pyramid, **one** sharded stage cache — published as immutable per-epoch
  :class:`~repro.store.snapshot.EpochSnapshot` objects, plus a registry
  of shared-memory stores (:class:`~repro.store.arena.SharedArenaStore`)
  with epoch validation and eviction.

* :class:`SessionView` is what is cheap and per-user — a brush canvas,
  a time window, a layout/paging state, an event journal — layered over
  a pinned epoch snapshot.  N concurrent views return exactly what N
  independent single-user engines would, while the process holds
  exactly one copy of the packed arrays (the encube render-node model:
  shared resident data, per-session query state).

Lock discipline (the multi-tenant tentpole).  **Queries never take the
service lock.**  Everything a query reads is epoch-immutable between
publishes — the dataset, the packed arrays, the summary pyramid, the
read-only arena views — so the read path is:

1. resolve the active snapshot with one atomic attribute read
   (``service._active``; sessions do this once, at pin time);
2. run the engine against it lock-free (per-call state on the stack,
   stage outputs through the thread-safe sharded
   :class:`~repro.core.plan.cache.StageCache`).

The service's re-entrant lock survives **only for mutations**: store
publish/evict, epoch rollover (the atomic snapshot swap), and session
lifecycle registry bookkeeping.  Pin/retire accounting itself is
lock-free (GIL-atomic refcounts, :mod:`repro.store.snapshot`), so even
session open/rebind touches the lock only to read the snapshot
registry.  Reprolint RL003 machine-checks both halves: the query-path
methods must not acquire the lock, and registry mutations must happen
under it.

Epoch lifecycle (streaming ingest, :mod:`repro.store.ingest`): a
session *pins* the active snapshot at creation and keeps querying that
epoch's dataset/engine even after a rollover republishes the arena
under a new epoch — its results stay exact, merely flagged
``stale-epoch`` on the :class:`DegradationReport` so callers know a
fresher epoch exists (call :meth:`SessionView.rebind` to move up).  An
epoch's shared-memory block is never unlinked while a session pins it;
the last unpin (explicit :meth:`SessionView.close` or garbage
collection) retires the snapshot — exactly once, via the sealed-zero
refcount — and releases the block.  The swap itself
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

    handle = service.publish_store()          # O(dataset) once
    render_viewport_parallel(..., store=handle)  # O(handle bytes) per owner
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
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
        epoch, its shared block is unlinked.
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
        retired (and its shared block unlinked) as soon as the pin is
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
    keep_stores:
        How many published shared-memory stores to retain; publishing
        beyond this evicts (closes + unlinks) the oldest, and handles
        to evicted stores fail to attach with a stale-handle error.
        A store pinned by live sessions is deregistered but its block
        survives until the last session detaches.

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
        keep_stores: int = 2,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("cannot serve an empty dataset")
        if keep_stores < 1:
            raise ValueError("keep_stores must be >= 1")
        self._lock = threading.RLock()
        engine = SharedQueryEngine(
            dataset,
            use_index=use_index,
            cache_capacity=cache_capacity,
            cache_shards=cache_shards,
        )
        self.keep_stores = int(keep_stores)
        self._use_index = use_index
        self._stores: "OrderedDict[str, SharedArenaStore]" = OrderedDict()
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

        The last pin out retires a non-active snapshot (unlinking each
        of its stores that is no longer registered), and on a closed service
        also the active one.  Receives the epoch *number* (what the
        session finalizer holds).
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
        Returns the snapshot's stores to unlink *outside* any lock (only
        those no longer in the registry — registered stores are still
        attachable and fall to normal eviction).
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
            return [s for s in snapshot.stores if s.uid not in self._stores]

    def _pinned_uids_locked(self) -> set[str]:
        """Uids of every store some live session pins: the one rule is
        that a session pinning a snapshot pins each store published from
        it, by rollover or by :meth:`publish_store`."""
        with self._lock:
            return {
                store.uid
                for s in self._snapshots.values()
                if s.pins > 0
                for store in s.stores
            }

    def _evict_overflow_locked(self) -> tuple[list[SharedArenaStore], int]:
        """Deregister stores beyond ``keep_stores`` (oldest first).

        Returns (victims to unlink outside the lock, count deferred):
        a store pinned by live sessions is deregistered — its handle
        stops validating — but its block survives, referenced by the
        pinning snapshot, until the last session detaches.
        """
        victims: list[SharedArenaStore] = []
        deferred = 0
        with self._lock:
            pinned = self._pinned_uids_locked()
            while len(self._stores) > self.keep_stores:
                uid, old = self._stores.popitem(last=False)
                if uid in pinned:
                    deferred += 1
                else:
                    victims.append(old)
        return victims, deferred

    def _swap_active(
        self,
        dataset: TrajectoryDataset,
        engine: SharedQueryEngine,
        store: SharedArenaStore | None = None,
    ) -> int:
        """Commit point of a rollover: atomically publish a new snapshot.

        **Only** :class:`~repro.store.ingest.RolloverCoordinator` may
        call this (reprolint RL008): the coordinator owns the staging
        and validation phases that make the swap safe.  Under the lock:
        the staged (dataset, engine, store) are registered as a new
        :class:`EpochSnapshot` and the active reference is retargeted
        with a single atomic assignment — from that instant every new
        pin lands on the successor, while in-flight sessions keep their
        pinned snapshot and finish there.  Zero-pin old snapshots
        retire, the store registry evicts overflow, and slow work
        (unlinking) happens outside the lock.
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
            if store is not None:
                snapshot.stores.append(store)
                self._stores[store.uid] = store
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
            overflow, deferred = self._evict_overflow_locked()
            victims.extend(overflow)
        obs.observe("rollover.swap_seconds", time.perf_counter() - t_swap)
        if deferred:
            obs.counter_add("store.evict.deferred", deferred)
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

    # Store registry ---------------------------------------------------------
    def publish_store(self) -> StoreHandle:
        """Publish (or reuse) a shared-memory store of the current
        dataset epoch and return its handle.

        Idempotent per epoch: repeated calls while the dataset is
        unchanged return the same handle.  After a mutation, a fresh
        store is materialized and old ones age out of the registry
        (evicted beyond ``keep_stores`` — their handles then fail to
        attach rather than serving stale segments).  The store belongs
        to the active snapshot, so sessions pinning it pin the store,
        exactly like a rollover's store.
        """
        self._check_open()
        victims: list[SharedArenaStore] = []
        deferred = 0
        with self._lock:
            active = self._active
            epoch = active.dataset.epoch
            handle: StoreHandle | None = None
            for store in reversed(self._stores.values()):
                if store.epoch == epoch:
                    handle = store.handle
                    break
            if handle is None:
                t_pub = time.perf_counter()
                store = SharedArenaStore.publish(active.dataset)
                obs.observe("store.publish.seconds", time.perf_counter() - t_pub)
                obs.counter_add("store.publishes", 1)
                active.stores.append(store)
                self._stores[store.uid] = store
                handle = store.handle
                victims, deferred = self._evict_overflow_locked()
        for old in victims:
            old.unlink()
            old.close()
        if deferred:
            obs.counter_add("store.evict.deferred", deferred)
        return handle

    def stores(self) -> tuple[StoreHandle, ...]:
        """Handles of every store currently registered (oldest first)."""
        with self._lock:
            return tuple(s.handle for s in self._stores.values())

    def evict_store(
        self, uid: str, *, degradation: DegradationReport | None = None
    ) -> bool:
        """Explicitly unlink and drop one registered store by uid;
        returns True when something was evicted.

        Refuses (returns False, bumps ``store.evict.refused``, records
        on ``degradation`` when given) while live sessions are pinned
        to the store's epoch — evicting would unlink a block those
        sessions' epoch contract says stays attachable until they
        detach.
        """
        pinned = False
        with self._lock:
            store = self._stores.get(uid)
            if store is None:
                return False
            if uid in self._pinned_uids_locked():
                pinned = True
            else:
                self._stores.pop(uid)
        if pinned:
            obs.counter_add("store.evict.refused", 1)
            if degradation is not None:
                degradation.record(
                    "evict-refused",
                    scope="session",
                    action="skipped",
                    detail=f"store {uid[:8]} pinned by live sessions",
                )
            return False
        store.unlink()
        store.close()
        return True

    # Introspection ----------------------------------------------------------
    def stats(self) -> dict:
        """Service health: sessions, snapshots, shared-cache counters."""
        with self._lock:
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
                "stores": [s.uid[:8] for s in self._stores.values()],
                "store_bytes": sum(s.nbytes for s in self._stores.values()),
                "cache": self.engine.cache_stats(),
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"DatasetService({self.dataset.name!r}, "
                f"sessions={self._n_sessions}, stores={len(self._stores)}, "
                f"epoch={self._active.epoch})"
            )

    # Lifecycle --------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("DatasetService is closed")

    def close(self) -> None:
        """Unlink and release every published store (idempotent); the
        in-process engine and existing sessions stay usable, and no new
        session opens.

        Stores pinned by live sessions are deregistered now but
        unlinked only when their last session detaches.
        """
        if self._closed:
            return
        self._closed = True
        victims: list[SharedArenaStore] = []
        deferred = 0
        with self._lock:
            doomed: "OrderedDict[str, SharedArenaStore]" = OrderedDict(self._stores)
            self._stores.clear()
            for snapshot in list(self._snapshots.values()):
                for store in self._retire_if_idle(snapshot):
                    doomed.setdefault(store.uid, store)
            pinned_uids = self._pinned_uids_locked()
            victims = [s for uid, s in doomed.items() if uid not in pinned_uids]
            deferred = len(doomed) - len(victims)
        for store in victims:
            store.unlink()
            store.close()
        if deferred:
            obs.counter_add("service.close.deferred", deferred)

    def __enter__(self) -> "DatasetService":
        """Context-manage the service (close on exit)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Unlink published stores."""
        self.close()
