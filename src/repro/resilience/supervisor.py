"""Supervised worker processes.

:class:`SupervisedPool` runs an ordered ``map`` over ``max_workers``
long-lived worker processes and treats partial failure as the normal
case.  Each worker has its own channel (a ``Process`` and a ``Pipe``),
and item ``i`` always runs on worker ``i % max_workers``, retries
included, so a worker can keep state from one ``map`` to the next: the
tile owners of :mod:`repro.parallel.tilerender` keep their tiles'
retained base layers that way.  Per item it detects

* worker death (end of file on the worker's pipe — e.g. an injected
  ``crash`` fault calling ``os._exit``),
* raised exceptions (including :class:`InjectedFault`),
* per-attempt timeouts (the hung worker is terminated),

and responds by respawning only the failed worker and retrying the
failed items under a :class:`RetryPolicy` with exponential backoff.
Items that exhaust their retries are re-executed *in the parent
process* via ``serial_fn`` — the bottom rung of the degradation ladder
— so ``map`` always completes with results bit-identical to a plain
serial loop.  Everything that failed, was retried, or fell back is
recorded in a :class:`DegradationReport` (no silent drops).

The pool starts no helper thread: the parent writes each worker's
requests itself and reads the replies with
:func:`multiprocessing.connection.wait`.  So respawning a worker under
the fork start method forks a process that runs only the caller's own
threads.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, NamedTuple, Sequence, TypeVar

from repro.resilience.faults import FaultPlan, InjectedFault, run_with_faults
from repro.resilience.health import DegradationReport
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy

__all__ = ["SupervisedPool"]

T = TypeVar("T")
R = TypeVar("R")

_UNSET = object()

#: Seconds a worker gets to exit after a stop request before it is
#: terminated.
_STOP_GRACE_S = 5.0


def _worker_main(conn: Connection, ordinal: int,
                 initializer: Callable[..., None] | None, initargs: tuple) -> None:
    """A worker's life: install its ordinal (for worker-targeted faults)
    and the caller's state, then serve requests until told to stop.

    A request is ``(fn, plan, [(job, attempt, item), ...])``; each item
    is answered in order with ``(True, value)`` or ``(False, exception)``.
    End of file (the parent is gone) or ``None`` stops the worker.
    """
    from repro.resilience import faults

    faults._WORKER_ORDINAL = ordinal
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        fn, plan, tasks = request
        for job, attempt, item in tasks:
            try:
                reply: tuple[bool, Any] = (True, run_with_faults(fn, item, job, attempt, plan))
            except Exception as exc:  # the job raised: ship the exception
                reply = (False, exc)
            try:
                conn.send(reply)
            except OSError:
                return  # the parent is gone
            except Exception as exc:  # pickling failed; nothing was written
                conn.send((False, RuntimeError(f"unpicklable reply: {exc!r}")))


class _Worker(NamedTuple):
    process: BaseProcess
    conn: Connection


class SupervisedPool:
    """Worker processes that outlive their failures.

    Parameters
    ----------
    max_workers:
        Number of workers (>= 1).
    policy:
        Retry policy governing attempts per item, backoff between retry
        rounds and the per-attempt timeout.
    fault_plan:
        Optional :class:`FaultPlan` shipped to workers (tests and
        benchmarks inject faults through this; production passes None).
    initializer / initargs:
        Per-worker setup, run once in each worker when it starts (and
        again in a respawned one).
    report:
        A :class:`DegradationReport` to accumulate into (a fresh one is
        created when omitted; read it back via :attr:`report`).
    sleep:
        Injectable backoff sleep.

    Workers start on the first ``map`` and live until :meth:`close`
    (or the end of a ``with`` block).  One caller at a time: a ``map``
    owns every worker's pipe until it returns.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        report: DegradationReport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self.policy = policy or DEFAULT_POLICY
        self.fault_plan = fault_plan
        self.report = report if report is not None else DegradationReport()
        self._initializer = initializer
        self._initargs = initargs
        self._sleep = sleep
        self._workers: dict[int, _Worker] = {}
        self._parent_pid = os.getpid()

    # Worker lifecycle -----------------------------------------------------
    @property
    def pids(self) -> tuple[int | None, ...]:
        """Process ids of the running workers, by ordinal."""
        return tuple(self._workers[o].process.pid for o in sorted(self._workers))

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, ordinal: int) -> _Worker:
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, ordinal, self._initializer, self._initargs),
            name=f"repro-worker-{ordinal}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker's end lives in the worker only
        worker = self._workers[ordinal] = _Worker(process, parent_conn)
        return worker

    def _kill(self, ordinal: int) -> None:
        """Terminate a dead, hung or misbehaving worker and reap it."""
        worker = self._workers.pop(ordinal, None)
        if worker is None:
            return
        worker.conn.close()
        worker.process.kill()
        worker.process.join()

    def close(self) -> None:
        """Stop every worker: ask, wait briefly, then terminate.

        A no-op outside the process that created the pool (a forked
        child holds a copy of the pool but none of its workers).
        """
        if os.getpid() != self._parent_pid:
            return
        workers, self._workers = self._workers, {}
        for worker in workers.values():
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already gone
        for worker in workers.values():
            worker.process.join(_STOP_GRACE_S)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()
            worker.conn.close()

    # Supervision ----------------------------------------------------------
    def _note_failure(
        self,
        kind: str,
        job: int,
        attempt: int,
        retry_next: list[tuple[int, int]],
        fallback: list[int],
        detail: str = "",
    ) -> None:
        """Record one failed attempt and route the item onward."""
        worker = job % self.max_workers
        spec = self.fault_plan.fires(job, attempt, worker) if self.fault_plan else None
        if spec is not None and "injected" not in kind:
            kind = f"injected-{spec.kind}"
        will_retry = attempt + 1 < self.policy.max_attempts
        self.report.record(
            kind,
            scope="job",
            action="retried" if will_retry else "serial-fallback",
            job=job,
            attempt=attempt,
            detail=detail,
        )
        if will_retry:
            retry_next.append((job, attempt + 1))
        else:
            fallback.append(job)

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        *,
        serial_fn: Callable[[T], R] | None = None,
    ) -> list[R]:
        """Ordered, failure-absorbing map.

        Item ``i`` runs on worker ``i % max_workers``, retries
        included, and a worker runs its items in order.

        Parameters
        ----------
        fn:
            Picklable per-item work function run in the workers (may
            rely on state installed by the initializer, or kept by the
            worker from earlier items).
        serial_fn:
            In-parent equivalent used for the last-resort fallback
            (defaults to ``fn``; pass one when ``fn`` depends on
            worker-local state).

        The pool's :attr:`policy`, :attr:`fault_plan` and :attr:`report`
        are read when ``map`` runs, so a caller may set them per call.
        """
        serial_fn = serial_fn if serial_fn is not None else fn
        n = len(items)
        results: list[Any] = [_UNSET] * n
        pending: list[tuple[int, int]] = [(i, 0) for i in range(n)]
        round_index = 0
        while pending:
            retry_next, fallback = self._round(fn, items, pending, results)

            # bottom rung: exhausted items run in-process, serially —
            # deterministic work gives bit-identical output
            for job in fallback:
                results[job] = serial_fn(items[job])

            if retry_next:
                self._sleep(self.policy.delay_for(round_index))
                round_index += 1
            pending = retry_next

        assert all(r is not _UNSET for r in results)
        return results

    def _round(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        pending: list[tuple[int, int]],
        results: list[Any],
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """One attempt of every pending item: one request per worker,
        then its replies in order as they arrive.  Returns the items to
        retry and the items to run in the parent."""
        retry_next: list[tuple[int, int]] = []
        fallback: list[int] = []

        def fail(kind: str, job: int, attempt: int, detail: str = "") -> None:
            self._note_failure(kind, job, attempt, retry_next, fallback, detail)

        queues: dict[int, deque[tuple[int, int]]] = {}
        for job, attempt in pending:
            queues.setdefault(job % self.max_workers, deque()).append((job, attempt))

        def lose(ordinal: int, kind: str, detail: str) -> None:
            """The worker died or hung: kill it (its next request
            respawns it) and fail its unanswered items."""
            self._kill(ordinal)
            queue = queues[ordinal]
            job, attempt = queue.popleft()
            self.report.record(kind, scope="worker", action="respawned",
                               job=job, attempt=attempt, detail=detail)
            fail(kind, job, attempt, detail)
            for job, attempt in queue:
                fail("crash", job, attempt, "worker lost mid-round")

        # conn -> (worker ordinal, when its current item started)
        live: dict[Connection, tuple[int, float]] = {}
        try:
            for ordinal, queue in queues.items():
                worker = self._workers.get(ordinal) or self._spawn(ordinal)
                try:
                    worker.conn.send((fn, self.fault_plan, [(job, attempt, items[job])
                                                            for job, attempt in queue]))
                except OSError as exc:
                    lose(ordinal, "crash", repr(exc))
                    continue
                live[worker.conn] = (ordinal, time.monotonic())
            timeout = self.policy.attempt_timeout_s
            while live:
                wait_s = None
                if timeout is not None:
                    oldest = min(started for _, started in live.values())
                    wait_s = max(0.0, oldest + timeout - time.monotonic())
                ready = wait(list(live), wait_s)
                if not ready:
                    # the longest-running item outlived its attempt timeout
                    conn = min(live, key=lambda c: live[c][1])
                    ordinal, _ = live.pop(conn)
                    lose(ordinal, "timeout", f"attempt exceeded {timeout}s")
                    continue
                for conn in [c for c in live if c in ready]:
                    ordinal, _ = live[conn]
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError) as exc:
                        del live[conn]
                        lose(ordinal, "crash", repr(exc))
                        continue
                    queue = queues[ordinal]
                    job, attempt = queue.popleft()
                    if queue:
                        live[conn] = (ordinal, time.monotonic())
                    else:
                        del live[conn]
                    if not ok:
                        if isinstance(value, InjectedFault):
                            fail(f"injected-{value.kind}", job, attempt, str(value))
                        else:
                            fail("error", job, attempt, repr(value))
                    else:
                        results[job] = value
        except BaseException:
            # a worker still owing replies would hand them to the next
            # map as its answers: drop it
            for ordinal, _ in live.values():
                self._kill(ordinal)
            raise
        return retry_next, fallback

