"""Shared-memory block lifecycle.

Thin wrapper over :mod:`multiprocessing.shared_memory` that fixes the
two operational hazards of raw ``SharedMemory`` blocks:

* **Attach-side resource tracking.**  CPython (< 3.13) registers a
  block with the ``resource_tracker`` on *attach* as well as on create,
  so a worker process that merely mapped a block "cleans it up" —
  unlinks it — when that worker exits, destroying the block for every
  other attached process and spraying "leaked shared_memory objects"
  warnings.  :func:`attach_block` suppresses attach-side registration
  (via ``track=False`` where available, else a guarded monkeypatch), so
  only the creating process ever owns the name.

* **Lifecycle discipline.**  Every block created or attached through
  this module lands in a per-process registry; :func:`live_blocks`
  exposes it (tests fail on leftovers), and an ``atexit`` sweep closes
  every mapping and unlinks blocks the exiting process *created* — the
  safety net that keeps a crashed test run from littering ``/dev/shm``.
  Ownership is pinned to the creating PID so a forked worker that
  inherited the owner's ``SharedBlock`` object never unlinks the
  parent's block at its own exit.
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import Any

try:  # gate: some minimal builds ship multiprocessing without shm
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover - exercised only on exotic builds
    _shm_mod = None

__all__ = [
    "HAVE_SHARED_MEMORY",
    "BLOCK_PREFIX",
    "StoreAttachError",
    "StaleHandleError",
    "SharedBlock",
    "create_block",
    "attach_block",
    "live_blocks",
]

#: True when :mod:`multiprocessing.shared_memory` is importable; every
#: store entry point raises :class:`StoreAttachError` when it is not.
HAVE_SHARED_MEMORY = _shm_mod is not None

#: Prefix of every block name this module creates — lets tests (and
#: operators) scan ``/dev/shm`` for strays belonging to this package.
BLOCK_PREFIX = "repro_store_"


class StoreAttachError(RuntimeError):
    """A shared block could not be created, attached, or verified."""


class StaleHandleError(StoreAttachError):
    """A handle references a store the publisher has since outgrown
    (dataset mutated / owning epoch retired); re-fetch a fresh handle."""


# Per-process registry of open blocks, keyed by object identity — one
# process may hold several mappings of the *same* name (a publisher plus
# in-process attach clients), so keying by name would let one mapping's
# close() untrack another's.  Guarded by a lock because pools attach
# from initializer threads.
_LIVE: dict[int, "SharedBlock"] = {}
_LIVE_LOCK = threading.Lock()
_ATTACH_LOCK = threading.Lock()


def _new_shared_memory(name: str | None, create: bool, size: int = 0) -> Any:
    """Construct a ``SharedMemory``, never registering attachments with
    the resource tracker (see module docstring)."""
    if _shm_mod is None:
        raise StoreAttachError(
            "multiprocessing.shared_memory is unavailable in this build"
        )
    if create:
        return _shm_mod.SharedMemory(name=name, create=True, size=size)
    try:  # Python >= 3.13 supports opting out directly
        return _shm_mod.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:  # the monkeypatch must not race other attaches
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return _shm_mod.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedBlock:
    """One named shared-memory block with explicit close/unlink.

    Parameters
    ----------
    name:
        Block name to attach to, or ``None`` to create a fresh block.
    size:
        Byte size when creating (ignored on attach).
    create:
        True to create (and own) the block, False to attach.
    """

    __slots__ = ("_shm", "_owner_pid", "_closed", "_unlinked")

    def __init__(self, name: str | None = None, *, size: int = 0,
                 create: bool = False) -> None:
        if create and size <= 0:
            raise ValueError("size must be > 0 when creating a block")
        try:
            self._shm = _new_shared_memory(name, create, size)
        except StoreAttachError:
            raise
        except FileNotFoundError as exc:
            raise StaleHandleError(
                f"shared block {name!r} no longer exists "
                "(unlinked by its publisher — stale handle?)"
            ) from exc
        except OSError as exc:
            raise StoreAttachError(
                f"cannot {'create' if create else 'attach'} shared block "
                f"{name!r}: {exc}"
            ) from exc
        # only the creating *process* may unlink; a forked child that
        # inherits this object must never tear the name down
        self._owner_pid = os.getpid() if create else -1
        self._closed = False
        self._unlinked = False
        with _LIVE_LOCK:
            _LIVE[id(self)] = self

    # Introspection -------------------------------------------------------
    @property
    def name(self) -> str:
        """The block's shared name (without the POSIX leading slash)."""
        return self._shm.name

    @property
    def size(self) -> int:
        """Mapped size in bytes."""
        return self._shm.size

    @property
    def buf(self) -> memoryview:
        """The writable memoryview over the mapping."""
        if self._closed:
            raise StoreAttachError(f"block {self.name!r} is closed")
        return self._shm.buf

    @property
    def owned(self) -> bool:
        """True when this process created (and may unlink) the block."""
        return self._owner_pid == os.getpid()

    @property
    def closed(self) -> bool:
        """True once the local mapping has been released."""
        return self._closed

    # Lifecycle -----------------------------------------------------------
    def close(self) -> bool:
        """Release this process's mapping (idempotent).

        Returns True when the mapping was (or already is) released;
        False when live zero-copy views still pin the buffer — the
        block then stays registered so leak checks can see it.
        """
        if self._closed:
            return True
        try:
            self._shm.close()
        except BufferError:
            return False  # numpy views still alive; retry after drop
        self._closed = True
        with _LIVE_LOCK:
            _LIVE.pop(id(self), None)
        return True

    def unlink(self) -> None:
        """Remove the block's name (creator only; idempotent).

        Attached (non-owner) blocks ignore the call — the publisher
        decides the data plane's lifetime, not its consumers.
        """
        if not self.owned or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # somebody beat us to it; make sure the
            try:  # tracker forgets the name so it cannot warn at exit
                from multiprocessing import resource_tracker

                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:
                pass

    def __enter__(self) -> "SharedBlock":
        """Context-manage the mapping: close (and unlink if owner) on exit."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Unlink (owner only) then close."""
        self.unlink()
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.size}B"
        role = "owner" if self.owned else "attached"
        return f"SharedBlock({self.name!r}, {state}, {role})"


def create_block(size: int, *, name: str | None = None) -> SharedBlock:
    """Create (and own) a new shared block of ``size`` bytes."""
    return SharedBlock(name, size=size, create=True)


def attach_block(name: str) -> SharedBlock:
    """Attach to an existing block; raises :class:`StaleHandleError`
    when the name no longer exists."""
    return SharedBlock(name, create=False)


def live_blocks() -> tuple[str, ...]:
    """Names of blocks this process currently holds open (sorted; a
    name repeats when a publisher and in-process attach clients map it
    simultaneously) — the leak-checking tests assert this empties out."""
    with _LIVE_LOCK:
        return tuple(sorted(block.name for block in _LIVE.values()))


def _atexit_sweep() -> None:
    """Safety net: at interpreter exit, close every mapping still open
    and unlink blocks this process created, so no test run (or crashed
    session) leaks ``/dev/shm`` segments or resource-tracker warnings."""
    with _LIVE_LOCK:
        leftovers = list(_LIVE.values())
    for block in leftovers:
        try:
            block.unlink()
            if not block.close():
                # Still pinned by zero-copy views at interpreter exit.
                # The kernel reclaims the mapping when the process dies,
                # so neuter the SharedMemory object instead of letting
                # its __del__ raise an ignored BufferError in final GC.
                block._shm._buf = None
                block._shm._mmap = None
        except Exception:
            pass


atexit.register(_atexit_sweep)
