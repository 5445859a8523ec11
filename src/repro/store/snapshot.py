"""Epoch snapshots and GIL-atomic pin accounting.

The lock-free multi-tenant read path rests on two small primitives:

* :class:`AtomicCounter` / :class:`AtomicRefCount` — counters built on
  ``collections.deque`` token buckets.  ``deque.append``/``pop`` and
  ``len(deque)`` are single C calls under CPython's GIL, so increments,
  decrements, and reads are atomic without any lock.  The refcount adds
  a *sealed zero* state claimed by a one-shot token pop, which makes
  "last pin out retires the snapshot" an exactly-once decision even
  when a racing pin and a racing retire interleave.

* :class:`EpochSnapshot` — one published dataset epoch and everything a
  query needs: the dataset, its packed view (through the engine), the
  summary pyramid, the stage cache, and the shared-memory store that
  backs them.  **Everything queryable on a snapshot is immutable after
  publish**; the only mutable field is the pin count.  Sessions resolve
  the active snapshot with a single atomic attribute read on the
  service and pin it — no lock is ever taken on the query path.

Pin/retire protocol (the part worth being careful about):

``try_pin`` optimistically appends a pin token, then verifies the
snapshot is not sealed; if a concurrent retire sealed it first, the pin
rolls back and the caller retries against the (new) active snapshot.
``seal_if_idle`` claims the one-shot seal token only when no pins
remain, then **re-checks**: if a pin raced in between the emptiness
check and the claim, the seal is pushed back and retirement is
declined — the racing pin's sealed-check may then spuriously fail, but
a spurious pin failure only costs a retry, never correctness.  The one
residual interleaving (both sides back off) leaves the snapshot alive
with zero pins; it is reclaimed by the next rollover sweep or by
service close, both of which re-attempt retirement of every idle
non-active snapshot.

The retire decision is therefore: *at most one* caller ever wins
``seal_if_idle`` for a given snapshot, no pin ever succeeds on a sealed
snapshot, and a snapshot with a live pin is never sealed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.engine import CoordinatedBrushingEngine
    from repro.store.arena import SharedArenaStore
    from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["AtomicCounter", "AtomicRefCount", "EpochSnapshot"]


class AtomicCounter:
    """A lock-free non-negative counter (GIL-atomic deque token bucket).

    ``incr``/``decr`` are one ``deque.append``/``deque.pop`` each;
    ``value`` is one ``len()``.  All three are single C calls that
    cannot be interleaved by another CPython thread, so the counter
    needs no lock and never tears.  ``decr`` below zero raises — a
    conservation bug should fail loudly, not saturate.
    """

    __slots__ = ("_tokens",)

    def __init__(self) -> None:
        self._tokens: deque[None] = deque()

    def incr(self) -> None:
        """Atomically add one."""
        self._tokens.append(None)

    def decr(self) -> None:
        """Atomically subtract one (raises IndexError below zero)."""
        self._tokens.pop()

    @property
    def value(self) -> int:
        """The current count (atomic read)."""
        return len(self._tokens)

    def __repr__(self) -> str:
        return f"AtomicCounter({len(self._tokens)})"


class AtomicRefCount:
    """Pin accounting with exactly-once retirement, no locks.

    States: *live* (seal token present) → *sealed* (token claimed by
    the single retirement winner).  Pins only ever succeed while live;
    sealing only ever succeeds while idle (zero pins).
    """

    __slots__ = ("_pins", "_seal")

    def __init__(self) -> None:
        self._pins: deque[None] = deque()
        self._seal: deque[None] = deque((None,))  # one-shot retire token

    def try_pin(self) -> bool:
        """Acquire one pin; False when the refcount is already sealed.

        Optimistic: the pin token lands *before* the sealed check, so a
        concurrent ``seal_if_idle`` either sees the token (and backs
        off) or has already claimed the seal (and this pin rolls back).
        Either way no pin coexists with a completed seal.
        """
        self._pins.append(None)
        if not self._seal:  # sealed (or mid-seal): back off and retry
            self._pins.pop()
            return False
        return True

    def unpin(self) -> int:
        """Release one pin; returns the remaining pin count."""
        self._pins.pop()
        return len(self._pins)

    @property
    def pins(self) -> int:
        """Current pin count (atomic read)."""
        return len(self._pins)

    @property
    def sealed(self) -> bool:
        """Has retirement been claimed?"""
        return not self._seal

    def seal_if_idle(self) -> bool:
        """Claim retirement iff no pins remain.  True exactly once.

        The post-claim re-check closes the pin/seal race: a pin that
        landed its token after our emptiness check (but before the
        claim) forces the seal back, keeping the snapshot alive for
        that pinner.
        """
        if self._pins:
            return False
        try:
            self._seal.pop()
        except IndexError:
            return False  # another retirer already won
        if self._pins:  # a pin raced in: undo the claim, decline
            self._seal.append(None)
            return False
        return True


@dataclass
class EpochSnapshot:
    """One immutable published epoch: what every query reads, lock-free.

    Published exactly once by :meth:`DatasetService._swap_active` (or
    service construction) and never mutated afterwards — the dataset,
    engine (packed view + summary pyramid + sharded stage cache), and
    backing store are all epoch-frozen, which is precisely why sessions
    may read them concurrently without any lock.  The only mutable
    state is ``refs`` (pin accounting) and the registry that maps
    epochs to snapshots (mutated under the service lock).
    """

    epoch: int
    dataset: "TrajectoryDataset"
    engine: "CoordinatedBrushingEngine"
    store: "SharedArenaStore | None" = None
    refs: AtomicRefCount = field(default_factory=AtomicRefCount)

    def try_pin(self) -> bool:
        """Pin this snapshot (False once retired — caller retries)."""
        return self.refs.try_pin()

    def unpin(self) -> int:
        """Release one pin; returns remaining pins."""
        return self.refs.unpin()

    @property
    def pins(self) -> int:
        """Live session pins on this snapshot."""
        return self.refs.pins

    @property
    def retired(self) -> bool:
        """Has this snapshot been retired (sealed)?"""
        return self.refs.sealed

    def __repr__(self) -> str:
        return (
            f"EpochSnapshot(epoch={self.epoch}, pins={self.refs.pins}, "
            f"retired={self.refs.sealed}, "
            f"store={'yes' if self.store is not None else 'no'})"
        )
