"""Threaded stress over the lock-free snapshot read path.

Sixteen threads hammer one :class:`DatasetService`: fifteen run
sessions (query + periodic rebind) while one drives streaming-ingest
rollovers through :class:`RolloverCoordinator`.  The suite asserts the
two properties the tentpole promises:

* **Exact conservation** — every pin is released, every query is
  attributed to exactly one epoch snapshot, and at the end
  ``published == retired`` with zero live pins.  The GIL-atomic
  refcounts (:mod:`repro.store.snapshot`) either count exactly or
  raise; saturation and silent loss are impossible by construction,
  and these tests would catch either.
* **Zero lock-path queries** — every query lands on
  ``service.snapshot.queries`` and the old ``service.lock.wait_seconds``
  gauge (the per-query lock wait of the pre-snapshot service) never
  appears: no query ever touched the service lock.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.core.brush import stroke_from_rect
from repro.display.presets import cyber_commons_wall, paper_viewport
from repro.store import DatasetService, IngestBuffer, RolloverCoordinator
from repro.store.snapshot import AtomicRefCount
from repro.trajectory.model import Trajectory, TrajectoryMeta

N_WORKERS = 15
QUERIES_PER_WORKER = 30
REBIND_EVERY = 7
N_ROLLOVERS = 6


def _traj(i: int, n: int = 6) -> Trajectory:
    t = np.linspace(0.0, 5.0, n)
    pos = np.stack([np.linspace(-0.4, 0.4, n), np.full(n, 0.005 * i)], axis=1)
    return Trajectory(pos, t, TrajectoryMeta(), traj_id=5000 + i)


@pytest.fixture(autouse=True)
def _restore_registry():
    previous = obs.get_registry()
    yield
    obs.set_registry(previous)


# AtomicRefCount protocol -----------------------------------------------------

class TestAtomicRefCount:
    def test_pin_unpin_seal_single_thread(self):
        refs = AtomicRefCount()
        assert refs.try_pin() and refs.pins == 1
        assert not refs.seal_if_idle()  # pinned: retirement declined
        assert refs.unpin() == 0
        assert refs.seal_if_idle()  # idle: retirement wins exactly once
        assert refs.sealed
        assert not refs.seal_if_idle()  # second retirer loses
        assert not refs.try_pin()  # no pin ever lands on a sealed count
        assert refs.pins == 0

    def test_unpin_below_zero_raises(self):
        refs = AtomicRefCount()
        with pytest.raises(IndexError):
            refs.unpin()

    def test_concurrent_pin_unpin_conserves(self):
        refs = AtomicRefCount()
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(500):
                assert refs.try_pin()
                refs.unpin()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert refs.pins == 0
        assert refs.seal_if_idle()

    def test_racing_retirers_have_one_winner(self):
        refs = AtomicRefCount()
        barrier = threading.Barrier(8)
        wins: list[bool] = []

        def retire():
            barrier.wait()
            wins.append(refs.seal_if_idle())

        threads = [threading.Thread(target=retire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1


# Mixed query / rollover / rebind stress -------------------------------------

@pytest.mark.filterwarnings("error::ResourceWarning")
def test_16_thread_mixed_load_conserves_counters(small_dataset):
    registry = obs.enable()
    service = DatasetService(small_dataset)
    viewport = paper_viewport(cyber_commons_wall())
    sessions = [service.session(viewport) for _ in range(N_WORKERS)]
    barrier = threading.Barrier(N_WORKERS + 1)
    errors: list[BaseException] = []
    rollovers_done: list[int] = []

    def worker(session):
        try:
            session.brush(
                stroke_from_rect((-1.0, -0.6), (-0.7, 0.6), radius=0.12, color="red")
            )
            barrier.wait()
            for q in range(QUERIES_PER_WORKER):
                result = session.run_query("red")
                assert result is not None
                if (q + 1) % REBIND_EVERY == 0:
                    session.rebind()
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    def ingester():
        try:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            barrier.wait()
            for r in range(N_ROLLOVERS):
                buf.extend([_traj(r * 4 + k) for k in range(4)])
                if coord.rollover() is not None:
                    rollovers_done.append(r)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(s,), name=f"session-{s.session_id}")
        for s in sessions
    ]
    threads.append(threading.Thread(target=ingester, name="ingester"))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(rollovers_done) == N_ROLLOVERS

    # drain every session, then the service: all pins must come home
    final_epoch = service.active_epoch()
    for session in sessions:
        session.close()
    service.close()

    snap = registry.snapshot()
    total = N_WORKERS * QUERIES_PER_WORKER

    # every query attributed exactly once, and exactly once to an epoch
    assert snap.counter_total("session.queries") == total
    assert snap.counter_total("service.snapshot.queries") == total
    assert snap.counter_total("query.count") == total

    # zero lock-path queries: the lock-wait gauge of the old serialized
    # read path is never emitted anymore
    assert snap.gauge("service.lock.wait_seconds") is None

    # pin conservation: every pin (session open + every rebind probe)
    # was released; nothing remains pinned after the drain
    pinned = snap.counter_total("service.snapshot.pinned")
    released = snap.counter_total("service.snapshot.released")
    assert pinned == released
    assert pinned >= N_WORKERS  # at least the initial session pins
    assert snap.gauge("service.snapshot.pins") == 0.0

    # snapshot conservation: initial publish + one per rollover, and
    # after the drain every snapshot has been retired exactly once
    published = snap.counter_total("service.snapshot.published")
    retired = snap.counter_total("service.snapshot.retired")
    assert published == 1 + N_ROLLOVERS
    assert published == retired
    assert snap.gauge("service.snapshot.live") == 0.0

    # the wall moved: each rollover added 4 trajectories to the epoch
    assert final_epoch == small_dataset.epoch + N_ROLLOVERS * 4
    assert snap.gauge("service.snapshot.active_epoch") == float(final_epoch)


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_stale_sessions_degrade_and_rebind_catches_up(small_dataset):
    """A session pinned across a rollover keeps answering (flagged
    stale); rebinding moves it to the new epoch and clears the flag."""
    registry = obs.enable()
    service = DatasetService(small_dataset)
    session = service.session(paper_viewport(cyber_commons_wall()))
    buf = IngestBuffer()
    coord = RolloverCoordinator(service, buf)
    buf.extend([_traj(900 + k) for k in range(3)])
    assert coord.rollover() is not None

    stale = session.run_query("red")
    assert stale.degraded
    assert any(e.kind == "stale-epoch" for e in stale.degradation.events)

    assert session.rebind() is True
    fresh = session.run_query("red")
    assert session.epoch == service.active_epoch()
    assert not any(
        e.kind == "stale-epoch"
        for e in (fresh.degradation.events if fresh.degradation else [])
    )
    assert registry.snapshot().counter_total("session.stale_queries") == 1.0
    session.close()
    service.close()


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_gc_dropped_sessions_release_their_pins(small_dataset):
    """Views dropped without close() still release pins (finalizer)."""
    import gc

    registry = obs.enable()
    service = DatasetService(small_dataset)
    viewport = paper_viewport(cyber_commons_wall())
    for _ in range(4):
        service.session(viewport)  # dropped immediately
    gc.collect()
    snap = registry.snapshot()
    assert snap.counter_total("service.snapshot.pinned") == 4.0
    assert snap.counter_total("service.snapshot.released") == 4.0
    assert snap.gauge("service.snapshot.pins") == 0.0
    service.close()
