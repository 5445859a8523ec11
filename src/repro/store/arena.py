"""The shared-memory arena store: one resident copy of the data plane.

A :class:`SharedArenaStore` materializes what a tile owner reads — the
per-trajectory sample arrays and the packed columnar segment view
(:class:`~repro.trajectory.dataset.PackedSegments`) — **once**, into a
single ``multiprocessing.shared_memory`` block.  Consumers receive a
:class:`StoreHandle`: a small picklable, epoch-tagged address (block
name + array table-of-contents) that costs O(handle bytes) to ship,
against the O(dataset bytes) pickling of the trajectories themselves.
:func:`attach` maps the block and rebuilds a fully functional
:class:`~repro.trajectory.dataset.TrajectoryDataset` whose arrays are
zero-copy views into the shared pages — the encube/Dataopsy "shared
immutable data plane, cheap per-consumer state" split.  The summary
pyramid is not in the block: it lives in the engine that built it, and
an engine over an attached dataset builds its own.

Block layout::

    [ 64-byte header: magic | uid | epoch ]
    [ 16-byte-aligned arrays, per the handle's ArraySpec TOC ]
    [ JSON metadata blob: name, traj metas ]

Blocks are written once at publish time and never mutated; dataset
mutation means a *new* store (new uid, new epoch).  A store is unlinked
when the service epoch that owns it retires — attaching through its
handle then fails loudly with :class:`~repro.store.shm.StaleHandleError`
instead of silently serving old segments.
"""

from __future__ import annotations

import json
import pickle
import struct
import time
import uuid
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.store.shm import (
    SharedBlock,
    StaleHandleError,
    StoreAttachError,
    attach_block,
    create_block,
)
from repro.trajectory.dataset import PackedSegments, TrajectoryDataset
from repro.trajectory.model import Trajectory, TrajectoryMeta

__all__ = ["ArraySpec", "StoreHandle", "SharedArenaStore", "StoreClient", "attach"]

_MAGIC = b"RSTORE1\n"
_HEADER = struct.Struct("<8s32sq16x")  # magic, uid hex, epoch, reserved
_ALIGN = 16


@dataclass(frozen=True)
class ArraySpec:
    """Table-of-contents entry addressing one array inside the block."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        """Byte length of the addressed array."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class StoreHandle:
    """Small picklable, epoch-tagged address of a published store.

    Shipping one of these to a worker replaces pickling the dataset:
    the handle is a few hundred bytes regardless of how many segments
    the arena holds.

    Attributes
    ----------
    block:
        Shared-memory block name to attach.
    uid:
        Unique id of this store build (changes on every publish).
    epoch:
        The dataset's mutation epoch at publish time.
    name:
        The published dataset's name.
    n_traj / n_samples / n_segments:
        Cardinalities, for sanity checks and reporting.
    arrays:
        Array table-of-contents (key → dtype/shape/offset).
    meta_span:
        (offset, length) of the JSON metadata blob inside the block.
    """

    block: str
    uid: str
    epoch: int
    name: str
    n_traj: int
    n_samples: int
    n_segments: int
    arrays: tuple[ArraySpec, ...]
    meta_span: tuple[int, int]

    @property
    def payload_bytes(self) -> int:
        """Total bytes of shared array + metadata payload the handle
        addresses (what pickle-shipping would have copied per worker)."""
        return sum(a.nbytes for a in self.arrays) + self.meta_span[1]

    @property
    def handle_bytes(self) -> int:
        """Size of this handle itself on the wire."""
        return len(pickle.dumps(self))

    def spec(self, key: str) -> ArraySpec:
        """The TOC entry for ``key`` (raises ``KeyError`` if absent)."""
        for a in self.arrays:
            if a.key == key:
                return a
        raise KeyError(key)


def _aligned(offset: int) -> int:
    """Round ``offset`` up to the array alignment boundary."""
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArenaStore:
    """One resident, immutable copy of a dataset's columnar arrays.

    Build via :meth:`publish`; hand :attr:`handle` to consumers; tear
    down with :meth:`close` / :meth:`unlink` (or use as a context
    manager).  The publishing process owns the block: closing an
    attached :class:`StoreClient` never affects other consumers,
    unlinking is publisher-only.
    """

    def __init__(self, block: SharedBlock, handle: StoreHandle) -> None:
        self._block = block
        self.handle = handle

    # Publication ---------------------------------------------------------
    @classmethod
    def publish(cls, dataset: TrajectoryDataset) -> "SharedArenaStore":
        """Materialize ``dataset`` (non-empty) into one shared block and
        return the store."""
        if len(dataset) == 0:
            raise ValueError("cannot publish an empty dataset")
        packed = dataset.packed()

        n_traj = len(dataset)
        sample_offsets = np.zeros(n_traj + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((t.n_samples for t in dataset), dtype=np.int64, count=n_traj),
            out=sample_offsets[1:],
        )
        n_samples = int(sample_offsets[-1])
        traj_ids = np.fromiter((t.traj_id for t in dataset), dtype=np.int64, count=n_traj)

        metas_blob = json.dumps(
            [t.meta.to_dict() for t in dataset], separators=(",", ":")
        ).encode("utf-8")

        # --- lay out the TOC ------------------------------------------------
        plan: list[tuple[str, str, tuple[int, ...]]] = [
            ("pos", "<f8", (n_samples, 2)),
            ("times", "<f8", (n_samples,)),
            ("sample_offsets", "<i8", (n_traj + 1,)),
            ("traj_ids", "<i8", (n_traj,)),
            ("seg_a", "<f8", (packed.n_segments, 2)),
            ("seg_b", "<f8", (packed.n_segments, 2)),
            ("seg_t0", "<f8", (packed.n_segments,)),
            ("seg_t1", "<f8", (packed.n_segments,)),
            ("seg_owner", "<i4", (packed.n_segments,)),
            ("seg_offsets", "<i8", (n_traj + 1,)),
        ]
        specs: list[ArraySpec] = []
        cursor = _HEADER.size
        for key, dtype, shape in plan:
            cursor = _aligned(cursor)
            specs.append(ArraySpec(key, dtype, shape, cursor))
            cursor += specs[-1].nbytes
        meta_offset = _aligned(cursor)
        total = meta_offset + len(metas_blob)

        uid = uuid.uuid4().hex
        block = create_block(total, name=f"repro_store_{uid[:16]}")
        handle = StoreHandle(
            block=block.name,
            uid=uid,
            epoch=dataset.epoch,
            name=dataset.name,
            n_traj=n_traj,
            n_samples=n_samples,
            n_segments=packed.n_segments,
            arrays=tuple(specs),
            meta_span=(meta_offset, len(metas_blob)),
        )

        # --- fill the block -------------------------------------------------
        _HEADER.pack_into(
            block.buf, 0, _MAGIC, uid.encode("ascii"), int(dataset.epoch)
        )
        views = {s.key: _map_array(block, s, writable=True) for s in specs}
        for i, traj in enumerate(dataset):
            lo, hi = sample_offsets[i], sample_offsets[i + 1]
            views["pos"][lo:hi] = traj.positions
            views["times"][lo:hi] = traj.times
        views["sample_offsets"][:] = sample_offsets
        views["traj_ids"][:] = traj_ids
        views["seg_a"][:] = packed.a
        views["seg_b"][:] = packed.b
        views["seg_t0"][:] = packed.t0
        views["seg_t1"][:] = packed.t1
        views["seg_owner"][:] = packed.owner
        views["seg_offsets"][:] = packed.offsets
        block.buf[meta_offset : meta_offset + len(metas_blob)] = metas_blob
        del views  # drop rw views so close() can release the mapping
        return cls(block, handle)

    # Introspection -------------------------------------------------------
    @property
    def uid(self) -> str:
        """Unique id of this store build."""
        return self.handle.uid

    @property
    def epoch(self) -> int:
        """Dataset mutation epoch captured at publish time."""
        return self.handle.epoch

    @property
    def nbytes(self) -> int:
        """Total size of the shared block."""
        return self._block.size

    @property
    def closed(self) -> bool:
        """True once the publisher's mapping is released."""
        return self._block.closed

    def __repr__(self) -> str:
        return (
            f"SharedArenaStore(uid={self.uid[:8]}, epoch={self.epoch}, "
            f"{self.handle.n_segments} segs, {self.nbytes}B)"
        )

    # Lifecycle -----------------------------------------------------------
    def close(self) -> bool:
        """Release the publisher's local mapping (consumers unaffected)."""
        return self._block.close()

    def unlink(self) -> None:
        """Remove the shared block's name; outstanding attachments keep
        their mapping, new attaches fail with a stale-handle error."""
        self._block.unlink()

    def __enter__(self) -> "SharedArenaStore":
        """Context-manage publisher lifetime (unlink + close on exit)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Unlink the name and release the mapping."""
        self.unlink()
        self.close()


def _map_array(block: SharedBlock, spec: ArraySpec, *, writable: bool = False) -> np.ndarray:
    """A numpy view over one TOC entry of a block (zero-copy).

    Must go through ``np.frombuffer`` — it registers a real buffer
    export on the mapping, so ``block.close()`` refuses (returns False)
    while views are alive.  ``np.ndarray(buffer=...)`` keeps only a raw
    pointer: close() would then unmap under live views and any later
    access is a use-after-free.
    """
    dtype = np.dtype(spec.dtype)
    count = int(np.prod(spec.shape, dtype=np.int64))
    arr = np.frombuffer(
        block.buf, dtype=dtype, count=count, offset=spec.offset
    ).reshape(spec.shape)
    if not writable:
        arr.setflags(write=False)
    return arr


class StoreClient:
    """One process's zero-copy attachment to a published store.

    Lazily rebuilds the dataset as views into the shared pages.  :meth:`close` drops the client's references and
    releases the mapping — arrays handed out remain valid only while
    some attachment (here or elsewhere) keeps the pages mapped, so drop
    derived objects before closing.
    """

    def __init__(self, handle: StoreHandle, block: SharedBlock) -> None:
        self.handle = handle
        self._block = block
        self._dataset: TrajectoryDataset | None = None

    # Zero-copy rebuilds --------------------------------------------------
    @property
    def dataset(self) -> TrajectoryDataset:
        """The attached dataset; every array is a view into the block."""
        if self._dataset is None:
            h = self.handle
            pos = _map_array(self._block, h.spec("pos"))
            times = _map_array(self._block, h.spec("times"))
            sample_offsets = _map_array(self._block, h.spec("sample_offsets"))
            traj_ids = _map_array(self._block, h.spec("traj_ids"))
            mo, ml = h.meta_span
            metas = json.loads(bytes(self._block.buf[mo : mo + ml]).decode("utf-8"))
            if len(metas) != h.n_traj:
                raise StoreAttachError(
                    f"store metadata lists {len(metas)} trajectories, "
                    f"handle says {h.n_traj}"
                )
            # from_validated: publish() wrote validated arrays, so the
            # attach path must not re-scan them (that would fault in the
            # whole mapping per worker and defeat the O(handle) cost)
            trajs = [
                Trajectory.from_validated(
                    pos[sample_offsets[i] : sample_offsets[i + 1]],
                    times[sample_offsets[i] : sample_offsets[i + 1]],
                    TrajectoryMeta.from_dict(metas[i]),
                    traj_id=int(traj_ids[i]),
                )
                for i in range(h.n_traj)
            ]
            packed = PackedSegments.from_arrays(
                a=_map_array(self._block, h.spec("seg_a")),
                b=_map_array(self._block, h.spec("seg_b")),
                t0=_map_array(self._block, h.spec("seg_t0")),
                t1=_map_array(self._block, h.spec("seg_t1")),
                owner=_map_array(self._block, h.spec("seg_owner")),
                offsets=_map_array(self._block, h.spec("seg_offsets")),
            )
            self._dataset = TrajectoryDataset.from_attached(
                trajs, packed, name=h.name, epoch=h.epoch
            )
        return self._dataset

    # Lifecycle -----------------------------------------------------------
    def close(self) -> bool:
        """Drop the rebuilt dataset and release the mapping.

        Returns False when arrays handed out earlier are still alive
        (the mapping then stays open and registered — visible to leak
        checks — until those references drop)."""
        self._dataset = None
        return self._block.close()

    def __enter__(self) -> "StoreClient":
        """Context-manage the attachment (close on exit)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Release the client's mapping."""
        self.close()

    def __repr__(self) -> str:
        return f"StoreClient({self.handle.block!r}, epoch={self.handle.epoch})"


def attach(handle: StoreHandle) -> StoreClient:
    """Attach to a published store and verify the handle against the
    block header.

    Raises
    ------
    StaleHandleError
        The block no longer exists (its publisher unlinked it) or its
        header epoch/uid disagrees with the handle.
    StoreAttachError
        The block exists but is not a store (corrupt / foreign block).
    """
    t_attach = time.perf_counter()
    block = attach_block(handle.block)
    try:
        if block.size < _HEADER.size:
            raise StoreAttachError(
                f"block {handle.block!r} too small to be a store ({block.size}B)"
            )
        magic, uid, epoch = _HEADER.unpack_from(block.buf, 0)
        if magic != _MAGIC:
            raise StoreAttachError(
                f"block {handle.block!r} is not a SharedArenaStore (bad magic)"
            )
        if uid.decode("ascii") != handle.uid or epoch != handle.epoch:
            raise StaleHandleError(
                f"handle (uid={handle.uid[:8]}, epoch={handle.epoch}) does not "
                f"match block (uid={uid.decode('ascii')[:8]}, epoch={epoch}); "
                "the store was republished — fetch a fresh handle"
            )
        need = max(
            max((s.offset + s.nbytes for s in handle.arrays), default=0),
            handle.meta_span[0] + handle.meta_span[1],
        )
        if block.size < need:
            raise StoreAttachError(
                f"block {handle.block!r} truncated: {block.size}B < {need}B"
            )
    except Exception:
        block.close()
        obs.counter_add("store.attach.failures", 1)
        raise
    obs.observe("store.attach.seconds", time.perf_counter() - t_attach)
    obs.counter_add("store.attaches", 1)
    return StoreClient(handle, block)
