"""Parallel-render fixtures: no test may leak shared memory.

The pooled render path may publish or attach a shared arena store;
the autouse fixture snapshots the in-process block registry and
``/dev/shm`` around each test and fails on any leftover — the same
enforcement the store suite applies, covering the tile owners' store
transport too.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from repro.store import live_blocks
from repro.store.shm import BLOCK_PREFIX

_SHM_DIR = Path("/dev/shm")


def _shm_files() -> set[str]:
    if not _SHM_DIR.is_dir():
        return set()
    return {p.name for p in _SHM_DIR.glob(f"{BLOCK_PREFIX}*")}


@pytest.fixture(autouse=True)
def no_leaked_blocks():
    """Fail any parallel test that leaks an open handle or an unlinked
    /dev/shm segment (store blocks must die with their owner)."""
    handles_before = set(live_blocks())
    files_before = _shm_files()
    yield
    gc.collect()
    leaked_handles = set(live_blocks()) - handles_before
    assert not leaked_handles, f"leaked open SharedBlock handles: {leaked_handles}"
    leaked_files = _shm_files() - files_before
    assert not leaked_files, f"leaked /dev/shm segments: {leaked_files}"
