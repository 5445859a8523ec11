"""Fixture: clean twin of rl003_bad — locked mutations, slow work
outside the critical section, lock-free read path."""

import threading
import time


class DatasetService:
    """Stand-in for the real service class (rule keys on the name)."""

    def __init__(self):
        """Construction is exempt: the object is not yet shared, so
        its registries are set up without the lock."""
        self._lock = threading.RLock()
        self._snapshots = {}
        self._n_sessions = 0
        self._active = None

    def count(self):
        """Reads the session counter under the lock."""
        with self._lock:
            return self._n_sessions

    def slow_publish(self):
        """Does the slow work before taking the lock."""
        time.sleep(0.1)
        with self._lock:
            self._snapshots[0] = None

    def hot_publish(self, snapshot):
        """Publishes the active snapshot under the mutation lock."""
        with self._lock:
            self._snapshots[snapshot.epoch] = snapshot
            self._active = snapshot

    def _pin_active(self):
        """Lock-free: one atomic read of the published reference.
        (Reading self._active unlocked is the sanctioned shape —
        only *writes* to it are guarded.)"""
        return self._active


class SessionView:
    """Stand-in for the per-user session view."""

    def run_query(self, color="red"):
        """Lock-free: the pinned snapshot's engine does the work."""
        return self.engine.query(self.canvas, color)
