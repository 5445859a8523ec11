"""Fixture: seeded RL003 violations (unguarded shared access, blocking
call under the lock, unlocked publish, locked query path).  Never
imported — parsed by reprolint only."""

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
        """Reads the session counter without the lock."""
        return self._n_sessions  # seeded: RL003 unguarded access

    def slow_publish(self):
        """Sleeps while holding the lock."""
        with self._lock:
            time.sleep(0.1)  # seeded: RL003 blocking call under lock
            self._snapshots[0] = None

    def hot_publish(self, snapshot):
        """Publishes the active snapshot without serializing mutators."""
        self._snapshots[snapshot.epoch] = snapshot  # seeded: RL003
        self._active = snapshot  # seeded: RL003 unlocked publish

    def _pin_active(self):
        """Declared lock-free, but queues behind the mutation lock."""
        with self._lock:  # seeded: RL003 lock on the query path
            return self._active


class SessionView:
    """Stand-in for the per-user session view."""

    def run_query(self, color="red"):
        """Declared lock-free, but takes a lock explicitly."""
        self.service._lock.acquire()  # seeded: RL003 acquire on query path
        try:
            return self.engine.query(self.canvas, color)
        finally:
            self.service._lock.release()
