"""Tests for the shared-memory arena store: block lifecycle, publish/
attach roundtrips, zero-copy guarantees, and stale-handle rejection.

``ResourceWarning`` is promoted to an error module-wide: a store test
that drops a mapping without closing it fails, not warns.

Derived-object discipline: zero-copy views pin the mapping (``close()``
refuses while they are alive), so every check that materializes the
attached dataset/engine runs inside a helper function — its locals die
when it returns, and the ``with attach(...)`` exit then releases
cleanly.  The autouse leak fixture enforces exactly this.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import pickle

import numpy as np
import pytest

from repro.core.aggregate import SummaryPyramid
from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.store import (
    SharedArenaStore,
    SharedBlock,
    StaleHandleError,
    StoreAttachError,
    attach,
    attach_block,
    create_block,
    live_blocks,
)

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")


def _canvas(radius: float = 0.12) -> BrushCanvas:
    canvas = BrushCanvas()
    canvas.add(stroke_from_rect((-1.0, -0.6), (-0.7, 0.6), radius, "red"))
    return canvas


class TestBlockLifecycle:
    def test_create_registers_and_close_unregisters(self):
        block = create_block(1024)
        assert block.name in live_blocks()
        assert block.owned
        assert block.size >= 1024
        block.unlink()
        assert block.close() is True
        assert block.name not in live_blocks()
        assert block.closed

    def test_close_and_unlink_idempotent(self):
        block = create_block(256)
        block.unlink()
        block.unlink()  # second unlink is a no-op, not an error
        assert block.close() is True
        assert block.close() is True

    def test_close_refuses_while_view_pinned(self):
        block = create_block(512)
        # frombuffer registers a real export (np.ndarray(buffer=...)
        # would not, and close() would unmap under the live view)
        view = np.frombuffer(block.buf, dtype=np.float64, count=64)
        assert block.close() is False  # view pins the mapping
        assert block.name in live_blocks()  # still visible to leak checks
        del view
        block.unlink()
        assert block.close() is True

    def test_attach_sees_creator_writes(self):
        block = create_block(256)
        np.frombuffer(block.buf, dtype=np.int64, count=8)[:] = np.arange(8)
        try:
            other = attach_block(block.name)
            try:
                got = np.frombuffer(other.buf, dtype=np.int64, count=8).copy()
                np.testing.assert_array_equal(got, np.arange(8))
                assert not other.owned
                other.unlink()  # non-owner unlink must be a silent no-op
            finally:
                assert other.close() is True
        finally:
            block.unlink()
            assert block.close() is True

    def test_attach_missing_name_is_stale(self):
        with pytest.raises(StaleHandleError):
            attach_block("repro_store_no_such_block")

    def test_same_name_mappings_tracked_independently(self):
        # A publisher plus an in-process attach client map the same
        # name; closing one must not untrack the other in live_blocks().
        block = create_block(256)
        try:
            other = attach_block(block.name)
            assert live_blocks().count(block.name) == 2
            assert other.close() is True
            assert live_blocks().count(block.name) == 1
        finally:
            block.unlink()
            assert block.close() is True
        assert block.name not in live_blocks()

    def test_create_requires_positive_size(self):
        with pytest.raises(ValueError):
            SharedBlock(None, size=0, create=True)

    def test_context_manager_cleans_up(self):
        with create_block(128) as block:
            name = block.name
            assert name in live_blocks()
        assert name not in live_blocks()


def _check_roundtrip(client, original) -> None:
    """Attached dataset equals the published one, array for array."""
    ds = client.dataset
    assert len(ds) == len(original)
    assert ds.name == original.name
    assert ds.epoch == original.epoch
    for orig, att in zip(original, ds):
        assert att.traj_id == orig.traj_id
        assert att.meta.to_dict() == orig.meta.to_dict()
        np.testing.assert_array_equal(att.positions, orig.positions)
        np.testing.assert_array_equal(att.times, orig.times)
    p0, p1 = original.packed(), ds.packed()
    for key in ("a", "b", "t0", "t1", "owner", "offsets"):
        np.testing.assert_array_equal(getattr(p0, key), getattr(p1, key))


def _check_zero_copy(client) -> None:
    """Attached arrays borrow the shared mapping — no private copies."""
    packed = client.dataset.packed()
    assert not packed.a.flags["OWNDATA"]
    assert not packed.a.flags["WRITEABLE"]
    traj = client.dataset[0]
    assert not traj.positions.flags["OWNDATA"]


def _check_query_identical(client, original, canvas, window) -> None:
    """Attached engine answers bit-identically, via the shared pyramid."""
    ref = CoordinatedBrushingEngine(original, use_index=False).query(
        canvas, "red", window=window
    )
    engine = client.engine()
    # the shared pyramid tables were adopted, not rebuilt
    assert engine.pyramid is client.pyramid()
    assert engine.plan(canvas, "red", window=window).strategy == "aggregate"
    got = engine.query(canvas, "red", window=window)
    np.testing.assert_array_equal(got.traj_mask, ref.traj_mask)
    np.testing.assert_array_equal(got.segment_mask, ref.segment_mask)


def _check_store_token(client, token) -> None:
    """The attached dataset carries the store's cache-key token."""
    assert client.dataset.store_token == token


def _check_query_unindexed(client, original, canvas) -> None:
    """Pyramid-less store still answers identically (brute force)."""
    assert client.pyramid() is None
    engine = client.engine()
    assert engine.plan(canvas, "red").strategy == "brute-force"
    got = engine.query(canvas, "red")
    ref = CoordinatedBrushingEngine(original, use_index=False).query(canvas, "red")
    np.testing.assert_array_equal(got.traj_mask, ref.traj_mask)


class TestPublishAttach:
    def test_roundtrip_arrays_equal(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            with attach(store.handle) as client:
                _check_roundtrip(client, small_dataset)

    def test_attached_arrays_are_views_not_copies(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            with attach(store.handle) as client:
                _check_zero_copy(client)

    def test_query_bit_identical_and_index_reused(self, small_dataset):
        pyramid = SummaryPyramid.build(small_dataset.packed(), small_dataset)
        with SharedArenaStore.publish(small_dataset, pyramid=pyramid) as store:
            assert store.handle.pyramid_meta is not None
            with attach(store.handle) as client:
                _check_query_identical(
                    client, small_dataset, _canvas(), TimeWindow.end(0.4)
                )

    def test_publish_without_index(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            assert store.handle.pyramid_meta is None
            assert not any(a.key.startswith("pyr_") for a in store.handle.arrays)
            with attach(store.handle) as client:
                _check_query_unindexed(client, small_dataset, _canvas())

    def test_close_refused_while_attached_views_live(self, small_dataset):
        """A client that forgets to drop derived objects cannot release
        the mapping — close() reports failure instead of segfaulting."""
        with SharedArenaStore.publish(small_dataset) as store:
            client = attach(store.handle)
            packed = client.dataset.packed()  # pins the mapping
            assert client.close() is False
            del packed
            assert client.close() is True

    def test_publish_empty_dataset_rejected(self):
        from repro.trajectory.dataset import TrajectoryDataset

        with pytest.raises(ValueError):
            SharedArenaStore.publish(TrajectoryDataset(name="empty"))


class TestHandle:
    def test_handle_is_small_and_picklable(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            handle = store.handle
            wire = pickle.dumps(handle)
            assert pickle.loads(wire) == handle
            # the tentpole economics: O(handle) vs O(dataset) per worker
            assert handle.handle_bytes < 4096
            assert handle.payload_bytes > 100 * handle.handle_bytes

    def test_store_token_tags_uid_and_epoch(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            token = store.handle.store_token
            assert token == ("shm", store.uid, store.epoch)
            with attach(store.handle) as client:
                _check_store_token(client, token)

    def test_spec_lookup(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            spec = store.handle.spec("pos")
            assert spec.shape == (store.handle.n_samples, 2)
            assert spec.offset % 16 == 0
            with pytest.raises(KeyError):
                store.handle.spec("nope")


class TestStaleHandles:
    def test_attach_after_unlink_is_stale(self, small_dataset):
        store = SharedArenaStore.publish(small_dataset)
        handle = store.handle
        store.unlink()
        store.close()
        with pytest.raises(StaleHandleError):
            attach(handle)

    def test_epoch_mismatch_rejected(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            forged = dataclasses.replace(store.handle, epoch=store.epoch + 1)
            with pytest.raises(StaleHandleError, match="republished"):
                attach(forged)

    def test_uid_mismatch_rejected(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            forged = dataclasses.replace(store.handle, uid="f" * 32)
            with pytest.raises(StaleHandleError):
                attach(forged)

    def test_foreign_block_rejected(self, small_dataset):
        with SharedArenaStore.publish(small_dataset) as store:
            with create_block(4096) as foreign:  # no store header
                forged = dataclasses.replace(store.handle, block=foreign.name)
                with pytest.raises(StoreAttachError, match="magic"):
                    attach(forged)


def _spawn_attach_worker(handle, queue) -> None:
    """Spawn-context child: attach the handle and report a checksum.

    Module-level so the spawned interpreter can import it by name; the
    parent's ``sys.path`` travels in the spawn preparation data.
    """
    from repro.store import attach as _attach

    try:
        client = _attach(handle)
        packed = client.dataset.packed()
        out = ("ok", packed.n_segments, float(packed.a.sum()), float(packed.t1.sum()))
        del packed
        client.close()
        queue.put(out)
    except Exception as exc:  # surfaced in the parent's assertion
        queue.put(("error", repr(exc), 0.0, 0.0))


class TestSpawnContext:
    def test_spawned_process_attaches_and_agrees(self, small_dataset):
        """A spawn-context child (fresh interpreter, nothing inherited)
        can attach through the pickled handle alone."""
        ctx = mp.get_context("spawn")
        with SharedArenaStore.publish(small_dataset) as store:
            queue = ctx.Queue()
            proc = ctx.Process(target=_spawn_attach_worker, args=(store.handle, queue))
            proc.start()
            try:
                status, n_segments, a_sum, t1_sum = queue.get(timeout=60)
            finally:
                proc.join(timeout=60)
            assert status == "ok", n_segments
            packed = small_dataset.packed()
            assert n_segments == packed.n_segments
            assert a_sum == pytest.approx(float(packed.a.sum()))
            assert t1_sum == pytest.approx(float(packed.t1.sum()))
            assert proc.exitcode == 0  # no atexit unlink/tracker blowups
