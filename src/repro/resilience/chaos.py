"""Seeded chaos harness for the ingest/rollover/query machinery.

:mod:`repro.resilience.faults` injects faults into *pool jobs*; this
module aims the same deterministic machinery at the **lifecycle
boundaries** of the streaming-ingest path (:mod:`repro.store.ingest`):

* :class:`ChaosMonkey` — a callable the
  :class:`~repro.store.ingest.RolloverCoordinator` invokes at each
  named rollover point (:data:`ROLLOVER_POINTS`); a :class:`FaultPlan`
  per point decides, deterministically per rollover ordinal, whether
  to crash (raise :class:`ChaosInterrupt`), error, or stall there.

* :class:`ChaosHarness` — a deterministic, seeded workload generator
  that interleaves producer appends, rollovers (with the monkey
  wired in), multi-session queries, session churn, store publishes and
  foreign attaches over one service, and checks the system's
  invariants after every step:

  - **no lost or duplicated segments** — the active dataset always
    holds exactly the initial trajectories plus those the buffer has
    committed, crashes notwithstanding;
  - **no stale reads** — every session's query equals a fresh
    brute-force engine evaluated over that session's pinned dataset
    (a stale-epoch cache hit or a torn swap would diverge);
  - **a store lives exactly as long as its epoch** — every handle the
    run was given attaches exactly while its epoch is live in the
    service;
  - **no leaked shared memory** — at teardown every block the run
    created is closed and unlinked.

Everything is seeded: a failing (seed, steps) pair is a reproducible
regression case, not an anecdote.  The module keeps its imports of
:mod:`repro.store` inside functions — :mod:`repro.resilience` is
imported by the core result type, and a module-level import would be
circular.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro import obs
from repro.resilience.faults import FaultPlan, FaultSpec, InjectedFault

if TYPE_CHECKING:
    from repro.store.arena import StoreHandle
    from repro.store.ingest import IngestBuffer, RolloverCoordinator
    from repro.store.service import DatasetService, SessionView

__all__ = [
    "ROLLOVER_POINTS",
    "ChaosInterrupt",
    "ChaosMonkey",
    "ChaosHarness",
    "ChaosReport",
]

ROLLOVER_POINTS = ("pre_stage", "post_stage", "pre_swap", "post_swap")


class ChaosInterrupt(RuntimeError):
    """A simulated coordinator crash at a rollover boundary.

    Raised by :class:`ChaosMonkey` where a real deployment would lose
    the coordinator process.  Catching it and calling ``rollover()``
    again *is* the recovery procedure under test.
    """

    def __init__(self, point: str, ordinal: int) -> None:
        super().__init__(f"chaos: simulated crash at {point!r} (rollover {ordinal})")
        self.point = point
        self.ordinal = ordinal


class ChaosMonkey:
    """Deterministic fault injection at named rollover points.

    Parameters
    ----------
    plans:
        Mapping of rollover point → :class:`FaultPlan`.  Each call to a
        point evaluates its plan at ``job = ordinal`` (how many times
        that point has been reached), so "crash the second rollover's
        swap" is ``{"pre_swap": FaultPlan((FaultSpec("crash", job=1),))}``
        and "crash 30% of stages" is
        ``{"post_stage": FaultPlan.crash_fraction(0.3, seed=7)}``.

    Fault kinds: ``crash`` raises :class:`ChaosInterrupt`, ``error``
    raises :class:`~repro.resilience.faults.InjectedFault`, ``slow`` /
    ``hang`` sleep ``delay_s`` (bounded — tests must stay fast).  Every
    firing is recorded on :attr:`fired`.
    """

    def __init__(self, plans: Mapping[str, FaultPlan]) -> None:
        unknown = set(plans) - set(ROLLOVER_POINTS)
        if unknown:
            raise ValueError(
                f"unknown rollover points {sorted(unknown)}; "
                f"valid: {ROLLOVER_POINTS}"
            )
        self.plans = dict(plans)
        self.calls: dict[str, int] = {p: 0 for p in ROLLOVER_POINTS}
        self.fired: list[tuple[str, int, str]] = []

    def __call__(self, point: str) -> None:
        ordinal = self.calls.get(point, 0)
        self.calls[point] = ordinal + 1
        plan = self.plans.get(point)
        if plan is None:
            return
        spec = plan.fires(job=ordinal, attempt=0)
        if spec is None:
            return
        self.fired.append((point, ordinal, spec.kind))
        obs.counter_add("chaos.fired", 1, point=point, kind=spec.kind)
        if spec.kind == "crash":
            raise ChaosInterrupt(point, ordinal)
        if spec.kind == "error":
            raise InjectedFault(spec.kind, job=ordinal, attempt=0)
        if spec.kind in ("slow", "hang"):
            import time

            time.sleep(spec.delay_s)


def _draw(seed: int, step: int, salt: str) -> float:
    """Deterministic uniform [0, 1) draw for one harness decision."""
    digest = hashlib.blake2b(
        f"{seed}:{step}:{salt}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass
class ChaosReport:
    """What one harness run did and survived."""

    steps: int = 0
    appended: int = 0
    rollovers: int = 0
    crashes: int = 0
    recovered: int = 0
    queries: int = 0
    stale_queries: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    rebinds: int = 0
    attaches: int = 0
    stale_attaches: int = 0
    fired: list[tuple[str, int, str]] = field(default_factory=list)


class ChaosHarness:
    """Drive a service + buffer + coordinator through a seeded storm.

    Parameters
    ----------
    dataset:
        Initial resident dataset (owned by the harness's service).
    stream:
        Trajectories to feed through the ingest buffer over the run.
    seed:
        Seeds every scheduling decision; (seed, n_steps) reproduces a
        run exactly.
    monkey:
        Optional :class:`ChaosMonkey` wired into the coordinator's
        chaos hook.  :class:`ChaosInterrupt` / ``InjectedFault`` raised
        mid-rollover are caught and counted — recovery on the next
        rollover is part of what the invariants then check.
    max_sessions:
        Concurrent session ceiling for the churn schedule.

    Use :meth:`run`, or :meth:`step`/:meth:`verify`/:meth:`close` for
    custom schedules.  The harness is a context manager; leaving it
    closes every session and the service, then asserts no shared
    memory leaked.
    """

    def __init__(
        self,
        dataset: Any,
        stream: Any,
        *,
        seed: int = 0,
        monkey: ChaosMonkey | None = None,
        max_sessions: int = 4,
    ) -> None:
        from repro.display.presets import CYBER_COMMONS, paper_viewport
        from repro.store.ingest import IngestBuffer, RolloverCoordinator
        from repro.store.service import DatasetService
        from repro.store.shm import live_blocks

        self.seed = seed
        self.monkey = monkey
        self.max_sessions = max_sessions
        self._blocks_before = set(live_blocks())
        self._n_initial = len(dataset)
        self._stream = list(stream)
        self._fed = 0
        self._viewport = paper_viewport(CYBER_COMMONS)
        self.service: "DatasetService" = DatasetService(dataset)
        self.buffer: "IngestBuffer" = IngestBuffer()
        self.coordinator: "RolloverCoordinator" = RolloverCoordinator(
            self.service, self.buffer, chaos=monkey
        )
        # every store handle the run was given, kept past its epoch so
        # each attach step re-checks the lifetime rule on all of them
        self._handles: list["StoreHandle"] = []
        self.sessions: list["SessionView"] = [self.service.session(self._viewport)]
        self.report = ChaosReport(sessions_opened=1)
        self._brush_all_sessions()

    # -- workload pieces ---------------------------------------------------
    def _brush(self, session: "SessionView", step: int) -> None:
        from repro.core.brush import stroke_from_rect
        from repro.core.temporal import TimeWindow

        u = _draw(self.seed, step, f"brush:{session.session_id}")
        x0 = -0.5 + 0.6 * u
        session.erase()
        session.brush(
            stroke_from_rect((x0, -0.4), (x0 + 0.35, 0.3), 0.06, "red")
        )
        session.set_time_window(TimeWindow.end(0.2 + 0.6 * u))

    def _brush_all_sessions(self) -> None:
        for s in self.sessions:
            self._brush(s, 0)

    def _append_some(self, step: int) -> None:
        n = 1 + int(_draw(self.seed, step, "append") * 3)
        for _ in range(n):
            if self._fed >= len(self._stream):
                return
            self.buffer.append(self._stream[self._fed])
            self._fed += 1
            self.report.appended += 1

    def _rollover(self) -> None:
        try:
            result = self.coordinator.rollover()
        except ChaosInterrupt:
            self.report.crashes += 1
            return
        except InjectedFault:
            self.report.crashes += 1
            return
        if result is not None:
            self.report.rollovers += 1
            if result.recovered:
                self.report.recovered += 1

    def _query_and_check(self, session: "SessionView", step: int) -> None:
        """The stale-read oracle: the session's answer must equal a
        fresh, cache-less brute-force engine over its pinned dataset."""
        from repro.core.engine import CoordinatedBrushingEngine

        self._brush(session, step)
        result = session.run_query("red")
        self.report.queries += 1
        if result.degradation is not None and any(
            e.kind == "stale-epoch" for e in result.degradation.events
        ):
            self.report.stale_queries += 1
        reference = CoordinatedBrushingEngine(
            session.dataset, use_index=False, cache_capacity=1
        ).query(
            session.canvas,
            "red",
            window=session.window,
            assignment=session.assignment,
        )
        if not np.array_equal(result.traj_mask, reference.traj_mask):
            raise AssertionError(
                f"chaos step {step}: session {session.session_id} "
                f"(epoch {session.epoch}) diverged from brute-force "
                "reference — stale cache entry or torn swap"
            )

    def _churn_sessions(self, step: int) -> None:
        u = _draw(self.seed, step, "churn")
        if len(self.sessions) > 1 and u < 0.4:
            victim = self.sessions.pop(
                int(_draw(self.seed, step, "victim") * len(self.sessions))
            )
            victim.close()
            self.report.sessions_closed += 1
        elif len(self.sessions) < self.max_sessions:
            s = self.service.session(self._viewport)
            self._brush(s, step)
            self.sessions.append(s)
            self.report.sessions_opened += 1

    def _rebind_one(self, step: int) -> None:
        s = self.sessions[int(_draw(self.seed, step, "rebind") * len(self.sessions))]
        if s.rebind():
            self._brush(s, step)
            self.report.rebinds += 1

    def _attach_roundtrip(self, step: int) -> None:
        """Publish the active epoch's store (a foreign consumer racing
        the swap machinery), keep its handle, and attach every handle
        kept so far: one must attach exactly while its epoch is live in
        the service, and fail as stale once its epoch has retired."""
        from repro.store.arena import attach
        from repro.store.shm import StaleHandleError

        handle = self.service.publish_store()
        if handle not in self._handles:
            self._handles.append(handle)
        live = self.service.stats()["epochs"]
        for h in self._handles:
            try:
                with attach(h) as client:
                    assert len(client.dataset) == h.n_traj
                self.report.attaches += 1
                attached = True
            except StaleHandleError:
                self.report.stale_attaches += 1
                attached = False
            if attached != (h.epoch in live):
                raise AssertionError(
                    f"chaos step {step}: the store of epoch {h.epoch} "
                    f"{'attaches' if attached else 'does not attach'} while "
                    f"the live epochs are {sorted(live)}"
                )

    # -- invariants --------------------------------------------------------
    def verify(self, step: int = -1) -> None:
        """Assert the conservation invariant: the active dataset holds
        the initial trajectories plus exactly those the buffer has
        committed — nothing lost to a crash, nothing ingested twice."""
        expected = self._n_initial + self.report.appended - self.buffer.n_pending
        actual = len(self.service.dataset)
        if actual != expected:
            raise AssertionError(
                f"chaos step {step}: active dataset holds {actual} "
                f"trajectories, expected {expected} "
                f"({self._n_initial} initial + {self.report.appended} "
                f"appended - {self.buffer.n_pending} pending)"
            )

    # -- driving -----------------------------------------------------------
    def step(self, step: int) -> None:
        """One scheduled action + invariant check."""
        self._append_some(step)
        u = _draw(self.seed, step, "action")
        if u < 0.35:
            self._rollover()
        elif u < 0.65:
            session = self.sessions[
                int(_draw(self.seed, step, "who") * len(self.sessions))
            ]
            self._query_and_check(session, step)
        elif u < 0.78:
            self._churn_sessions(step)
        elif u < 0.88:
            self._rebind_one(step)
        else:
            self._attach_roundtrip(step)
        self.report.steps += 1
        self.verify(step)

    def run(self, n_steps: int) -> ChaosReport:
        """Run ``n_steps`` scheduled actions, then query every live
        session one final time against the oracle."""
        for i in range(n_steps):
            self.step(i)
        for s in list(self.sessions):
            self._query_and_check(s, n_steps)
        self.report.fired = list(self.monkey.fired) if self.monkey else []
        return self.report

    def close(self) -> None:
        """Close every session and the service, then assert the run
        left no shared-memory block behind."""
        import gc

        from repro.store.shm import live_blocks

        for s in self.sessions:
            s.close()
            self.report.sessions_closed += 1
        self.sessions.clear()
        self.service.close()
        gc.collect()
        leaked = set(live_blocks()) - self._blocks_before
        if leaked:
            raise AssertionError(f"chaos run leaked shared blocks: {sorted(leaked)}")

    def __enter__(self) -> "ChaosHarness":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
