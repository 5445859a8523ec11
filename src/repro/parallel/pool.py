"""Worker counts and the round-robin deal of jobs to workers.

The one process pool is :class:`repro.resilience.SupervisedPool`; this
module only sizes it and splits work across its workers.
"""

from __future__ import annotations

import os
from typing import Sequence, TypeVar

__all__ = ["default_workers", "round_robin_batches"]

T = TypeVar("T")


def default_workers() -> int:
    """A sane default worker count: physical parallelism minus one,
    at least one."""
    return max(1, (os.cpu_count() or 2) - 1)


def round_robin_batches(items: Sequence[T], n_batches: int) -> list[tuple[T, ...]]:
    """Deal ``items`` into ``n_batches`` non-empty round-robin batches.

    Batch ``b`` gets ``items[b::n]`` — a deterministic, order-stable
    deal that spreads any positional cost skew (e.g. tiles of one wall
    column being denser than another) across batches instead of
    handing one batch a contiguous hot stripe.  ``n_batches`` is
    clamped to ``len(items)`` so no batch is ever empty.

    >>> round_robin_batches([1, 2, 3, 4, 5], 2)
    [(1, 3, 5), (2, 4)]
    >>> round_robin_batches([1], 4)
    [(1,)]
    """
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    n = min(int(n_batches), len(items))
    return [tuple(items[b::n]) for b in range(n)]
