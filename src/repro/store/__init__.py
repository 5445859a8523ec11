"""Shared-memory data plane and multi-session serving.

The package splits the system the way encube (Vohl et al.) splits a
cluster-driven display wall and Dataopsy (Hoque & Elmqvist) splits
aggregate query serving: a **shared immutable data plane** — one
resident copy of the trajectory samples and packed segment arrays,
published on demand, once per epoch, into ``multiprocessing.shared_memory``
for the pooled renderer's tile owners to map — and **cheap per-consumer
state** on top of it.

* :mod:`repro.store.shm` — block lifecycle (create/attach/close/unlink,
  atexit safety net, leak registry).
* :mod:`repro.store.arena` — :class:`SharedArenaStore` (publish),
  :class:`StoreHandle` (the small picklable address tile owners
  receive instead of a pickled dataset), :func:`attach` →
  :class:`StoreClient` (a zero-copy dataset rebuild).
* :mod:`repro.store.snapshot` — :class:`EpochSnapshot` (one immutable
  published epoch: dataset + engine + pyramid, and the stores published
  while it was active, which it owns) and the GIL-atomic pin/retire
  refcounts under it.
* :mod:`repro.store.service` — :class:`DatasetService` (registry of
  epoch snapshots with an atomically-published *active* one, the one
  store publish path, epoch lifecycle) and :class:`SessionView`
  (per-user canvas/window/layout/journal, pinned to one snapshot), so
  N concurrent sessions query one resident copy **without ever taking
  the service lock on the read path**.  A store lives exactly as long
  as the snapshot that owns it.
* :mod:`repro.store.ingest` — :class:`IngestBuffer` (thread-safe
  staging for streaming trajectories) and :class:`RolloverCoordinator`
  (two-phase epoch rollover: stage → atomic swap), so the service keeps
  serving while the dataset grows.
"""

from repro.store.arena import (
    ArraySpec,
    SharedArenaStore,
    StoreClient,
    StoreHandle,
    attach,
)
from repro.store.ingest import (
    IngestBatch,
    IngestBuffer,
    RolloverCoordinator,
    RolloverResult,
)
from repro.store.service import DatasetService, SessionView, SharedQueryEngine
from repro.store.snapshot import AtomicCounter, AtomicRefCount, EpochSnapshot
from repro.store.shm import (
    HAVE_SHARED_MEMORY,
    SharedBlock,
    StaleHandleError,
    StoreAttachError,
    attach_block,
    create_block,
    live_blocks,
)

__all__ = [
    "ArraySpec",
    "SharedArenaStore",
    "StoreClient",
    "StoreHandle",
    "attach",
    "IngestBatch",
    "IngestBuffer",
    "RolloverCoordinator",
    "RolloverResult",
    "DatasetService",
    "SessionView",
    "SharedQueryEngine",
    "AtomicCounter",
    "AtomicRefCount",
    "EpochSnapshot",
    "HAVE_SHARED_MEMORY",
    "SharedBlock",
    "StaleHandleError",
    "StoreAttachError",
    "attach_block",
    "create_block",
    "live_blocks",
]
