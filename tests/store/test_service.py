"""Tests for the multi-session service layer: N concurrent session
views over one DatasetService must behave exactly like N independent
single-user engines, while the process holds one copy of the packed
arrays — plus per-epoch store publishing, and stores that live exactly
as long as the epoch they were published from.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.session import ExplorationSession
from repro.core.temporal import TimeWindow
from repro.store import (
    DatasetService,
    IngestBuffer,
    RolloverCoordinator,
    SharedQueryEngine,
    StaleHandleError,
    attach,
)
from repro.synth import AntStudyConfig, generate_study_dataset
from repro.trajectory.model import Trajectory, TrajectoryMeta

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

N_SESSIONS = 8


def _session_ops(i: int, arena):
    """Deterministic per-user brushing script #i (each user differs)."""
    r = arena.radius
    x0 = -r + 0.15 * r * i
    stroke = stroke_from_rect(
        (x0, -0.6 * r), (x0 + 0.3 * r, 0.5 * r), 0.1 * r, "red"
    )
    window = TimeWindow.end(0.15 + 0.08 * i)
    return stroke, window


def _drive(session, i: int, arena) -> np.ndarray:
    """Run user #i's script on a session and return the query mask."""
    stroke, window = _session_ops(i, arena)
    session.brush(stroke)
    session.set_time_window(window)
    first = session.run_query("red")
    second = session.run_query("red")  # warm path must agree with cold
    np.testing.assert_array_equal(first.traj_mask, second.traj_mask)
    return first.traj_mask


@pytest.fixture()
def mutable_dataset():
    """A small private dataset safe to mutate (append) in a test."""
    return generate_study_dataset(AntStudyConfig(n_trajectories=12, seed=3))


def _extra_traj() -> Trajectory:
    t = np.linspace(0.0, 5.0, 6)
    pos = np.stack([np.linspace(0.0, 0.5, 6), np.zeros(6)], axis=1)
    return Trajectory(pos, t, TrajectoryMeta(), traj_id=-1)


class TestSharedState:
    def test_sessions_share_engine_and_packed(self, small_dataset, viewport):
        with DatasetService(small_dataset) as service:
            views = [service.session(viewport) for _ in range(3)]
            assert service.n_sessions == 3
            # one resident copy: every view runs on the service engine,
            # which runs on the dataset's one packed segment view
            assert all(v.engine is service.engine for v in views)
            assert isinstance(service.engine, SharedQueryEngine)
            assert service.engine.packed is service.dataset.packed()
            ids = [v.session_id for v in views]
            assert len(set(ids)) == 3

    def test_empty_dataset_rejected(self):
        from repro.trajectory.dataset import TrajectoryDataset

        with pytest.raises(ValueError):
            DatasetService(TrajectoryDataset(name="empty"))


class TestConcurrentSessions:
    def test_eight_threads_match_independent_engines(
        self, small_dataset, viewport, arena
    ):
        """The acceptance bar: 8 concurrent SessionViews produce results
        identical to 8 fully independent single-user engines."""
        # reference: independent sessions, each with a private engine
        expected = []
        for i in range(N_SESSIONS):
            solo = ExplorationSession(small_dataset, viewport)
            expected.append(_drive(solo, i, arena))

        with DatasetService(small_dataset) as service:
            views = [service.session(viewport) for _ in range(N_SESSIONS)]
            results: list[np.ndarray | None] = [None] * N_SESSIONS
            errors: list[BaseException] = []
            barrier = threading.Barrier(N_SESSIONS)

            def run(i: int) -> None:
                try:
                    barrier.wait(timeout=30)
                    results[i] = _drive(views[i], i, arena)
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(N_SESSIONS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors
            for i in range(N_SESSIONS):
                np.testing.assert_array_equal(results[i], expected[i])
            # the shared cache absorbed repeat work across sessions
            assert service.engine.cache_stats()["hits"] > 0


class TestStoreRegistry:
    def test_publish_idempotent_per_epoch(self, small_dataset):
        with DatasetService(small_dataset) as service:
            h1 = service.publish_store()
            h2 = service.publish_store()
            assert h1 == h2
            assert service.stats()["stores"] == [h1.uid[:8]]

    def test_mutation_staleness_and_attach_after_mutation(self, mutable_dataset):
        with DatasetService(mutable_dataset) as service:
            old = service.publish_store()
            mutable_dataset.append(_extra_traj())
            fresh = service.publish_store()
            assert fresh.uid != old.uid
            assert fresh.epoch > old.epoch
            # both stores belong to the one active snapshot: the old
            # block still attaches (its header matches its own handle),
            # serving the old epoch, until the snapshot retires
            assert service.stats()["stores"] == [old.uid[:8], fresh.uid[:8]]
            attach(old).close()

    def test_close_unlinks_everything(self, small_dataset):
        service = DatasetService(small_dataset)
        handle = service.publish_store()
        service.close()
        service.close()  # idempotent
        with pytest.raises(StaleHandleError):
            attach(handle)
        with pytest.raises(RuntimeError, match="closed"):
            service.publish_store()

    def test_stats(self, small_dataset, viewport):
        with DatasetService(small_dataset) as service:
            service.session(viewport)
            service.publish_store()
            stats = service.stats()
            assert stats["n_traj"] == len(small_dataset)
            assert stats["sessions"] == 1
            assert len(stats["stores"]) == 1
            assert stats["store_bytes"] > 0
            assert "hits" in stats["cache"]


class TestSharedQueryEngine:
    def test_results_match_plain_engine(self, small_dataset, arena):
        from repro.core.canvas import BrushCanvas

        stroke, window = _session_ops(1, arena)
        canvas = BrushCanvas()
        canvas.add(stroke)
        plain = CoordinatedBrushingEngine(small_dataset)
        shared = SharedQueryEngine(small_dataset)
        np.testing.assert_array_equal(
            shared.query(canvas, "red", window=window).traj_mask,
            plain.query(canvas, "red", window=window).traj_mask,
        )
        # re-entrancy: the locked multi-color path nests locked query()
        shared.query_all_colors(canvas, window=window)
        shared.invalidate_cache()
        assert shared.cache_stats()["entries"] == 0


class TestCloseWithLiveSessions:
    """Closing a service while sessions are mid-query must defer
    resource release, never unlink a block out from under a pinned
    epoch."""

    @staticmethod
    def _by_rollover(service):
        buffer = IngestBuffer()
        buffer.append(_extra_traj())
        RolloverCoordinator(service, buffer).rollover()
        return service.publish_store()

    @classmethod
    def _pinned_session(cls, service, viewport, arena, publish=None):
        """Publish a store (by default of an epoch reached by rolling
        one trajectory in) and open a brushed session on its epoch;
        return ``(session, handle, ref_mask)``.

        A store belongs to the snapshot that was active when it was
        published, so a session pinning that epoch pins the block too.
        """
        stroke, window = _session_ops(5, arena)
        handle = (publish or cls._by_rollover)(service)
        session = service.session(viewport)
        session.brush(stroke)
        session.set_time_window(window)
        ref = session.run_query("red").traj_mask.copy()
        return session, handle, ref

    def test_close_while_querying_defers_client_release(
        self, mutable_dataset, viewport, arena
    ):
        service = DatasetService(mutable_dataset)
        session, _, ref = self._pinned_session(service, viewport, arena)

        start = threading.Event()
        failures: list[BaseException] = []

        def hammer() -> None:
            start.wait()
            try:
                for _ in range(30):
                    got = session.run_query("red")
                    np.testing.assert_array_equal(got.traj_mask, ref)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        worker = threading.Thread(target=hammer)
        worker.start()
        start.set()
        service.close()  # races the query loop; release must defer
        worker.join()
        assert failures == []

        # the pinned session keeps answering after the service closed
        np.testing.assert_array_equal(session.run_query("red").traj_mask, ref)
        # ... but no new sessions can open
        with pytest.raises(RuntimeError, match="closed"):
            service.session(viewport)
        session.close()  # last detach finally releases the block
        # conftest's no_leaked_blocks asserts nothing stayed mapped

    def test_origin_close_defers_unlink_until_sessions_detach(
        self, mutable_dataset, viewport, arena
    ):
        for publish in (self._by_rollover, DatasetService.publish_store):
            service = DatasetService(mutable_dataset)
            session, handle, ref = self._pinned_session(
                service, viewport, arena, publish
            )

            service.close()
            np.testing.assert_array_equal(session.run_query("red").traj_mask, ref)
            attach(handle).close()  # the pinned epoch's block is still there
            session.close()  # the last detach unlinks it
            with pytest.raises(StaleHandleError):
                attach(handle)
