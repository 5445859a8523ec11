"""Streaming-ingest tests: buffer semantics, two-phase rollover,
session pinning across epochs, crash recovery, cache isolation, and
the store lifetime rule: a store lives exactly as long as its epoch.

The autouse ``no_leaked_blocks`` fixture (conftest) closes the loop on
every test here: any path that leaks a retired epoch's shared block
fails its test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.brush import stroke_from_rect
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.resilience import ChaosInterrupt, InjectedFault
from repro.store import (
    DatasetService,
    IngestBatch,
    IngestBuffer,
    RolloverCoordinator,
    StaleHandleError,
    attach,
    live_blocks,
)
from repro.synth import AntStudyConfig, generate_study_dataset
from repro.trajectory.model import Trajectory, TrajectoryMeta
from tests.store.test_store import _check_roundtrip


def _traj(i: int, n: int = 6) -> Trajectory:
    t = np.linspace(0.0, 5.0, n)
    pos = np.stack([np.linspace(-0.4, 0.4, n), np.full(n, 0.01 * i)], axis=1)
    return Trajectory(pos, t, TrajectoryMeta(), traj_id=1000 + i)


@pytest.fixture()
def base_dataset():
    return generate_study_dataset(AntStudyConfig(n_trajectories=10, seed=21))


@pytest.fixture()
def west_ops():
    stroke = stroke_from_rect((-0.5, -0.4), (-0.1, 0.4), 0.06, "red")
    return stroke, TimeWindow.end(0.5)


# IngestBuffer ---------------------------------------------------------------

class TestIngestBuffer:
    def test_sequence_numbers_and_snapshot(self):
        buf = IngestBuffer()
        assert buf.append(_traj(0)) == 0
        assert buf.append(_traj(1)) == 1
        assert buf.extend([_traj(2), _traj(3)]) == 3
        assert buf.n_pending == 4
        batch = buf.snapshot()
        assert (batch.seq_lo, batch.seq_hi, len(batch)) == (0, 4, 4)
        # snapshot does not consume
        assert buf.n_pending == 4

    def test_commit_through_drops_exactly_the_prefix(self):
        buf = IngestBuffer()
        buf.extend([_traj(i) for i in range(5)])
        assert buf.commit_through(2) == 3
        assert buf.n_pending == 2
        batch = buf.snapshot()
        assert (batch.seq_lo, batch.seq_hi) == (3, 5)
        # committing the same range again is a no-op
        assert buf.commit_through(2) == 0
        assert buf.commit_through(4) == 2
        assert buf.snapshot() is None

    def test_segment_accounting(self):
        buf = IngestBuffer()
        buf.append(_traj(0, n=6))  # 5 segments
        buf.append(_traj(1, n=3))  # 2 segments
        assert buf.n_segments_pending == 7
        batch = buf.snapshot()
        assert batch.n_segments == 7

    def test_lag_with_injectable_clock(self):
        now = [100.0]
        buf = IngestBuffer(clock=lambda: now[0])
        assert buf.lag_seconds() == 0.0
        buf.append(_traj(0))
        now[0] = 103.5
        assert buf.lag_seconds() == pytest.approx(3.5)
        buf.commit_through(0)
        assert buf.lag_seconds() == 0.0

    def test_batch_tail_from(self):
        batch = IngestBatch(3, 6, tuple(_traj(i) for i in range(3)))
        assert batch.tail_from(2) is batch
        tail = batch.tail_from(5)
        assert (tail.seq_lo, tail.seq_hi, len(tail)) == (5, 6, 1)
        empty = batch.tail_from(9)
        assert len(empty) == 0

    def test_batch_rejects_inconsistent_span(self):
        with pytest.raises(ValueError, match="spans"):
            IngestBatch(0, 3, (_traj(0),))


# Rollover happy path --------------------------------------------------------

class TestRollover:
    def test_rollover_publishes_new_epoch(self, base_dataset, viewport):
        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            epoch0 = service.active_epoch()
            batch = [_traj(i) for i in range(4)]
            buf.extend(batch)

            result = coord.rollover()
            assert result.n_ingested == 4
            assert result.epoch == epoch0 + 4 == service.active_epoch()
            assert len(service.dataset) == len(base_dataset) + 4
            assert buf.n_pending == 0
            assert list(service.dataset) == [*base_dataset, *batch]
            # the one publish path serves the new epoch on demand
            handle = service.publish_store()
            assert handle.epoch == result.epoch
            with attach(handle) as client:
                _check_roundtrip(client, service.dataset)

    def test_empty_buffer_rollover_is_none(self, base_dataset):
        with DatasetService(base_dataset) as service:
            coord = RolloverCoordinator(service, IngestBuffer())
            assert coord.rollover() is None

    def test_sessions_pin_their_epoch_and_degrade_stale(
        self, base_dataset, viewport, west_ops
    ):
        stroke, window = west_ops
        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            old = service.session(viewport)
            old.brush(stroke)
            old.set_time_window(window)
            before = old.run_query("red")
            assert not before.degraded

            buf.extend([_traj(i) for i in range(3)])
            coord.rollover()

            # the pinned session still answers over its epoch, flagged
            after = old.run_query("red")
            assert after.degraded
            assert any(
                e.kind == "stale-epoch" for e in after.degradation.events
            )
            assert len(after.traj_mask) == len(base_dataset)
            np.testing.assert_array_equal(before.traj_mask, after.traj_mask)

            # a fresh session sees the new epoch, not degraded
            fresh = service.session(viewport)
            fresh.brush(stroke)
            fresh.set_time_window(window)
            now = fresh.run_query("red")
            assert not now.degraded
            assert len(now.traj_mask) == len(base_dataset) + 3

            # rebind moves the old session up
            assert old.rebind() is True
            assert old.epoch == service.active_epoch()
            assert not old.run_query("red").degraded
            assert old.rebind() is False
            old.close()
            fresh.close()

    def test_new_epoch_queries_never_hit_old_epoch_cache(
        self, base_dataset, viewport, west_ops
    ):
        """Satellite invariant: the shared cache serves across the
        rollover only within an epoch — a new-epoch query's stages all
        miss even though the old epoch warmed the same (stroke, window)."""
        stroke, window = west_ops
        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            s = service.session(viewport)
            s.brush(stroke)
            s.set_time_window(window)
            s.run_query("red")
            warm_old = s.run_query("red")
            assert warm_old.trace.cache_hits > 0

            buf.extend([_traj(i) for i in range(2)])
            coord.rollover()
            # same engine cache object, shared across epochs
            assert service.engine.cache is s.engine.cache

            fresh = service.session(viewport)
            fresh.brush(stroke)
            fresh.set_time_window(window)
            cold_new = fresh.run_query("red")
            assert cold_new.trace.cache_hits == 0
            # and the brute-force reference agrees (nothing stale served)
            ref = CoordinatedBrushingEngine(fresh.dataset, use_index=False).query(
                fresh.canvas, "red", window=window, assignment=fresh.assignment
            )
            np.testing.assert_array_equal(cold_new.traj_mask, ref.traj_mask)
            s.close()
            fresh.close()

    def test_in_process_rollover_publishes_no_block(self, base_dataset):
        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            buf.append(_traj(0))
            before = live_blocks()
            coord.rollover()
            assert live_blocks() == before
            assert len(service.dataset) == len(base_dataset) + 1

    def test_rollover_emits_swap_metrics(self, base_dataset):
        obs.enable()
        try:
            with DatasetService(base_dataset) as service:
                buf = IngestBuffer()
                coord = RolloverCoordinator(service, buf)
                buf.append(_traj(0))
                coord.rollover()
                snap = obs.telemetry_snapshot()
                assert snap.counter_total("rollover.count") == 1.0
                hist = snap.histogram("rollover.swap_seconds")
                assert hist is not None and hist.count == 1
        finally:
            obs.disable()


# Crash and recovery ---------------------------------------------------------

class TestCrashSafety:
    @pytest.mark.parametrize("point", ["pre_stage", "post_stage", "pre_swap"])
    def test_crash_before_swap_loses_nothing(self, base_dataset, point):
        """A coordinator death anywhere before the swap leaves the old
        epoch serving, the buffer intact, and no leaked block; the next
        rollover ingests the same batch."""

        def chaos(p: str, _armed=[True]) -> None:
            if p == point and _armed[0]:
                _armed[0] = False
                raise ChaosInterrupt(p, 0)

        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf, chaos=chaos)
            buf.extend([_traj(i) for i in range(3)])
            epoch0 = service.active_epoch()

            with pytest.raises(ChaosInterrupt):
                coord.rollover()
            assert service.active_epoch() == epoch0
            assert len(service.dataset) == len(base_dataset)
            assert buf.n_pending == 3  # nothing lost

            result = coord.rollover()  # recovery: plain retry
            assert result.n_ingested == 3
            assert buf.n_pending == 0
            assert len(service.dataset) == len(base_dataset) + 3

    def test_injected_error_mid_stage_aborts_cleanly(self, base_dataset):
        def chaos(p: str, _armed=[True]) -> None:
            if p == "post_stage" and _armed[0]:
                _armed[0] = False
                raise InjectedFault("error", job=0, attempt=0)

        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf, chaos=chaos)
            buf.append(_traj(0))
            with pytest.raises(InjectedFault):
                coord.rollover()
            assert buf.n_pending == 1
            assert coord.rollover().n_ingested == 1

    def test_crash_between_swap_and_commit_never_double_ingests(
        self, base_dataset, monkeypatch
    ):
        """The nastiest window: swap committed, buffer ack lost.  The
        coordinator's swapped high-water mark must trim (not re-ingest)
        the batch on the next rollover."""
        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            buf.extend([_traj(i) for i in range(2)])

            real_commit = buf.commit_through
            calls = {"n": 0}

            def dying_commit(seq: int) -> int:
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ChaosInterrupt("commit", 0)
                return real_commit(seq)

            monkeypatch.setattr(buf, "commit_through", dying_commit)
            with pytest.raises(ChaosInterrupt):
                coord.rollover()
            # swap happened; ack did not
            assert len(service.dataset) == len(base_dataset) + 2
            assert buf.n_pending == 2

            result = coord.rollover()
            assert result.recovered is True
            assert result.n_ingested == 0
            assert buf.n_pending == 0
            # no duplicates: still exactly base + 2
            assert len(service.dataset) == len(base_dataset) + 2


# Epoch lifecycle / pinning --------------------------------------------------

class TestEpochLifecycle:
    """One lifetime rule: a store published by ``publish_store()``
    belongs to the snapshot that was active then, and is unlinked when
    that snapshot retires — at the rollover when no session pins it,
    otherwise at its last session's ``rebind()`` or ``close()``."""

    def test_old_store_survives_until_last_session_detaches(
        self, base_dataset, viewport
    ):
        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            h0 = service.publish_store()
            first = service.session(viewport)
            last = service.session(viewport)

            buf.append(_traj(0))
            coord.rollover()
            # the pinned sessions still query fine over their epoch
            assert len(first.run_query("red").traj_mask) == len(base_dataset)
            attach(h0).close()
            assert first.rebind() is True
            attach(h0).close()  # one pin left: the block is still there
            last.close()  # the last detach unlinks it
            with pytest.raises(StaleHandleError):
                attach(h0)
            first.close()

    def test_unpinned_old_store_is_unlinked_at_rollover(self, base_dataset):
        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            h0 = service.publish_store()
            buf.append(_traj(0))
            coord.rollover()
            with pytest.raises(StaleHandleError):
                attach(h0)
            assert service.stats()["stores"] == []

    def test_pinned_old_store_is_unlinked_at_rebind(self, base_dataset, viewport):
        with DatasetService(base_dataset) as service:
            buf = IngestBuffer()
            coord = RolloverCoordinator(service, buf)
            h0 = service.publish_store()
            pinned = service.session(viewport)
            buf.append(_traj(0))
            coord.rollover()
            attach(h0).close()
            assert pinned.rebind() is True
            with pytest.raises(StaleHandleError):
                attach(h0)
            pinned.close()

    def test_epoch_must_advance(self, base_dataset):
        with DatasetService(base_dataset) as service:
            with pytest.raises(ValueError, match="must exceed"):
                service._swap_active(  # reprolint: disable=RL008
                    service.dataset, service.engine
                )
