"""The shared-memory arena store: one resident copy of the data plane.

A :class:`SharedArenaStore` materializes everything the query and
render paths read — the per-trajectory sample arrays, the packed
columnar segment view (:class:`~repro.trajectory.dataset.PackedSegments`),
and optionally the :class:`~repro.core.aggregate.SummaryPyramid`
tables — **once**, into a single ``multiprocessing.shared_memory``
block.  Consumers receive a :class:`StoreHandle`: a small picklable,
epoch-tagged address (block name + array table-of-contents) that costs
O(handle bytes) to ship, against the O(dataset bytes) pickling of the
trajectories themselves.  :func:`attach` maps the block and rebuilds a
fully functional :class:`~repro.trajectory.dataset.TrajectoryDataset`
(and pyramid, and engine) whose arrays are zero-copy views into the
shared pages — the encube/Dataopsy "shared immutable data plane, cheap
per-consumer state" split.

Block layout::

    [ 64-byte header: magic | uid | epoch ]
    [ 16-byte-aligned arrays, per the handle's ArraySpec TOC ]
    [ JSON metadata blob: name, traj metas ]

Blocks are written once at publish time and never mutated; dataset
mutation means a *new* store (new uid, new epoch) and eventual eviction
of the old one — attaching through an outdated handle fails loudly with
:class:`~repro.store.shm.StaleHandleError` instead of silently serving
old segments.
"""

from __future__ import annotations

import json
import pickle
import struct
import time
import uuid
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

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

if TYPE_CHECKING:
    from repro.core.engine import CoordinatedBrushingEngine

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
    pyramid_meta:
        ``(res, n_tbuckets, levels)`` of the materialized summary
        pyramid, or ``None`` when published without one.  The shapes of
        every ``pyr_*`` TOC entry derive from this triple, so the
        handle stays a few hundred bytes.
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
    pyramid_meta: tuple | None = None

    @property
    def store_token(self) -> tuple:
        """Identity embedded into query-plan cache keys for datasets
        served from this store (uid + epoch: a republished or mutated
        store can never collide with cached stage outputs)."""
        return ("shm", self.uid, self.epoch)

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

    def has_array(self, key: str) -> bool:
        """True when the store materialized an array under ``key``."""
        return any(a.key == key for a in self.arrays)


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
    def publish(
        cls,
        dataset: TrajectoryDataset,
        *,
        pyramid: "object | None" = None,
    ) -> "SharedArenaStore":
        """Materialize ``dataset`` (and optionally its summary pyramid)
        into one shared block and return the store.

        Parameters
        ----------
        dataset:
            The trajectory collection to publish (must be non-empty).
        pyramid:
            A prebuilt :class:`~repro.core.aggregate.SummaryPyramid`
            over ``dataset.packed()`` to materialize alongside the
            segments, so attachers rebuild it zero-copy from the shared
            tables (no re-summarization).  Omitted → the store has no
            pyramid and attached engines answer by brute force.
        """
        if len(dataset) == 0:
            raise ValueError("cannot publish an empty dataset")
        packed = dataset.packed()
        if pyramid is not None and pyramid.packed is not packed:
            raise ValueError("pyramid was not built over this dataset's packed view")

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
        if pyramid is not None:
            plan += [
                ("pyr_node_of", "<i4", (packed.n_segments,)),
                ("pyr_entries", "<i8", (packed.n_segments,)),
                ("pyr_offsets", "<i8", (pyramid.n_nodes + 1,)),
                ("pyr_bbox", "<f8", (pyramid.n_nodes, 4)),
                ("pyr_tstats", "<f8", (pyramid.n_nodes, 8)),
                ("pyr_bits", "<u8", (pyramid.n_cells, pyramid.n_words)),
                ("pyr_level_bbox", "<f8", (len(pyramid.level_bbox), 4)),
                ("pyr_lo", "<f8", (2,)),
                ("pyr_cell_size", "<f8", (2,)),
                ("pyr_traj_start", "<f8", (n_traj,)),
                ("pyr_traj_dur", "<f8", (n_traj,)),
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
            pyramid_meta=None if pyramid is None else (
                pyramid.res, pyramid.n_tbuckets, pyramid.levels
            ),
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
        if pyramid is not None:
            views["pyr_node_of"][:] = pyramid.node_of
            views["pyr_entries"][:] = pyramid.entries
            views["pyr_offsets"][:] = pyramid.offsets
            views["pyr_bbox"][:] = pyramid.bbox
            views["pyr_tstats"][:] = pyramid.tstats
            views["pyr_bits"][:] = pyramid.bits
            views["pyr_level_bbox"][:] = pyramid.level_bbox
            views["pyr_lo"][:] = pyramid.lo
            views["pyr_cell_size"][:] = pyramid.cell_size
            views["pyr_traj_start"][:] = pyramid.traj_start
            views["pyr_traj_dur"][:] = pyramid.traj_dur
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

    def validate(self) -> None:
        """Verify the published block against its handle.

        The second phase of a rollover's two-phase commit
        (:mod:`repro.store.ingest`): after staging and before the
        atomic swap, the coordinator re-checks that the block it is
        about to publish is exactly what the handle advertises —
        header (magic, uid, epoch), TOC geometry (aligned,
        non-overlapping, in-bounds offsets), cardinality cross-links
        (sample/segment offset tables sum to the advertised counts),
        and a parseable metadata blob.  Raises
        :class:`~repro.store.shm.StoreAttachError` on any mismatch so
        a corrupt stage aborts the rollover instead of being swapped
        in; the old epoch keeps serving.
        """
        h = self.handle
        if self._block.closed:
            raise StoreAttachError(f"store {h.uid[:8]}: block already closed")

        def fail(msg: str) -> "StoreAttachError":
            obs.counter_add("store.validate.failures", 1)
            return StoreAttachError(f"store {h.uid[:8]}: {msg}")

        magic, uid_hex, epoch = _HEADER.unpack_from(self._block.buf, 0)
        if magic != _MAGIC:
            raise fail(f"bad magic {magic!r}")
        if uid_hex.decode("ascii", "replace") != h.uid:
            raise fail("header uid does not match handle")
        if epoch != h.epoch:
            raise fail(f"header epoch {epoch} != handle epoch {h.epoch}")

        cursor = _HEADER.size
        for spec in h.arrays:
            if spec.offset % _ALIGN:
                raise fail(f"array {spec.key!r} offset {spec.offset} unaligned")
            if spec.offset < cursor:
                raise fail(f"array {spec.key!r} overlaps its predecessor")
            cursor = spec.offset + spec.nbytes
        meta_offset, meta_len = h.meta_span
        if meta_offset < cursor or meta_offset + meta_len > self._block.size:
            raise fail("metadata blob outside the block")

        sample_offsets = _map_array(self._block, h.spec("sample_offsets"))
        seg_offsets = _map_array(self._block, h.spec("seg_offsets"))
        try:
            if len(sample_offsets) != h.n_traj + 1 or len(seg_offsets) != h.n_traj + 1:
                raise fail("offset tables sized for a different n_traj")
            if int(sample_offsets[-1]) != h.n_samples:
                raise fail(
                    f"sample offsets end at {int(sample_offsets[-1])}, "
                    f"handle says {h.n_samples} samples"
                )
            if int(seg_offsets[-1]) != h.n_segments:
                raise fail(
                    f"segment offsets end at {int(seg_offsets[-1])}, "
                    f"handle says {h.n_segments} segments"
                )
        finally:
            del sample_offsets, seg_offsets

        try:
            metas = json.loads(
                bytes(self._block.buf[meta_offset : meta_offset + meta_len])
            )
        except ValueError as exc:
            raise fail(f"metadata blob is not valid JSON: {exc}") from exc
        if len(metas) != h.n_traj:
            raise fail(
                f"metadata lists {len(metas)} trajectories, handle says {h.n_traj}"
            )
        obs.counter_add("store.validates", 1)

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

    Lazily rebuilds the dataset / pyramid / engine as views into the
    shared pages.  :meth:`close` drops the client's references and
    releases the mapping — arrays handed out remain valid only while
    some attachment (here or elsewhere) keeps the pages mapped, so drop
    derived objects before closing.
    """

    def __init__(self, handle: StoreHandle, block: SharedBlock) -> None:
        self.handle = handle
        self._block = block
        self._dataset: TrajectoryDataset | None = None
        self._pyramid = None

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
                trajs,
                packed,
                name=h.name,
                epoch=h.epoch,
                store_token=h.store_token,
            )
        return self._dataset

    def pyramid(self) -> "object | None":
        """The attached :class:`~repro.core.aggregate.SummaryPyramid`
        rebuilt zero-copy from the shared tables, or ``None`` when the
        store was published without one."""
        if self.handle.pyramid_meta is None:
            return None
        if self._pyramid is None:
            from repro.core.aggregate.pyramid import SummaryPyramid

            h = self.handle
            res, n_tbuckets, levels = h.pyramid_meta
            self._pyramid = SummaryPyramid.from_tables(
                self.dataset.packed(),
                res=res,
                n_tbuckets=n_tbuckets,
                levels=tuple(levels),
                lo=_map_array(self._block, h.spec("pyr_lo")).copy(),
                cell_size=_map_array(self._block, h.spec("pyr_cell_size")).copy(),
                node_of=_map_array(self._block, h.spec("pyr_node_of")),
                entries=_map_array(self._block, h.spec("pyr_entries")),
                offsets=_map_array(self._block, h.spec("pyr_offsets")),
                bbox=_map_array(self._block, h.spec("pyr_bbox")),
                tstats=_map_array(self._block, h.spec("pyr_tstats")),
                bits=_map_array(self._block, h.spec("pyr_bits")),
                level_bbox=_map_array(self._block, h.spec("pyr_level_bbox")),
                traj_start=_map_array(self._block, h.spec("pyr_traj_start")),
                traj_dur=_map_array(self._block, h.spec("pyr_traj_dur")),
            )
        return self._pyramid

    def engine(self, **engine_kwargs: Any) -> "CoordinatedBrushingEngine":
        """A :class:`CoordinatedBrushingEngine` over the attached
        dataset, reusing the shared pyramid tables (no rebuild).  Stores
        published without a pyramid yield a brute-force engine."""
        from repro.core.engine import CoordinatedBrushingEngine

        pyramid = self.pyramid()
        if pyramid is not None:
            engine_kwargs.setdefault("pyramid", pyramid)
        else:
            engine_kwargs.setdefault("use_index", False)
        return CoordinatedBrushingEngine(self.dataset, **engine_kwargs)

    # Lifecycle -----------------------------------------------------------
    def close(self) -> bool:
        """Drop rebuilt objects and release the mapping.

        Returns False when arrays handed out earlier are still alive
        (the mapping then stays open and registered — visible to leak
        checks — until those references drop)."""
        self._dataset = None
        self._pyramid = None
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
        The block no longer exists (publisher evicted/unlinked it) or
        its header epoch/uid disagrees with the handle.
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
