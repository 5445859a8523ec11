"""Degradation accounting.

Every resilience mechanism in this package — worker supervision, query
fallback, loader quarantine — degrades *visibly*: whatever failed, was
retried, or ran on a slower path is recorded in a
:class:`DegradationReport` attached to the operation's result
(``ParallelRenderReport.degradation``, ``QueryResult.degradation``).
The contract is "no silent drops": a frame rendered under injected
worker crashes is bit-identical to the healthy frame, and the report
accounts for every fault that stood between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs

__all__ = ["FaultEvent", "DegradationReport"]


@dataclass(frozen=True)
class FaultEvent:
    """One observed failure and the action the system took.

    Attributes
    ----------
    kind:
        What went wrong: ``"crash"`` (worker/pool death), ``"error"``
        (job raised), ``"timeout"``, ``"injected-*"`` (a fault-plan
        fault observed as such), ``"index-build-failure"`` (the summary pyramid failed to
        build; queries answer by brute force), ``"deadline-exceeded"``
        (a query ran out of budget), ``"stale-epoch"`` (a session served
        a superseded epoch), ``"io-row"`` / ``"io-trajectory"`` (loader
        quarantine), ``"shm-attach-failure"`` (a shared-memory store
        handle could not be attached — stale epoch or evicted block).
    scope:
        Which layer observed it: ``"job"``, ``"worker"``, ``"pool"``,
        ``"index"``, ``"query"``, ``"io"``, or ``"session"``.
    action:
        What the supervisor did about it: ``"retried"``,
        ``"serial-fallback"``, ``"degraded-brute-force"``,
        ``"respawned"``, ``"quarantined"``, ``"skipped"``, or
        ``"pickle-fallback"`` (the pool shipped the pickled dataset
        instead of a zero-copy store handle).
    job:
        Job index the event concerns, when job-scoped.
    attempt:
        Zero-based attempt number that failed.
    detail:
        Free-form context (exception repr, fault spec, row number).
    """

    kind: str
    scope: str
    action: str
    job: int | None = None
    attempt: int = 0
    detail: str = ""


@dataclass
class DegradationReport:
    """Accumulated record of what failed and how it was absorbed."""

    events: list[FaultEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        *,
        scope: str,
        action: str,
        job: int | None = None,
        attempt: int = 0,
        detail: str = "",
    ) -> FaultEvent:
        """Append one event and return it.

        Every degradation in the system funnels through here (query
        fallback, worker supervision, loader quarantine, store
        transport), so this is also the telemetry chokepoint: each
        event increments the ``resilience.faults`` counter family
        (labelled by kind/scope/action) and respawn actions
        additionally feed ``pool.worker.respawns``.
        """
        event = FaultEvent(kind, scope, action, job, attempt, detail)
        self.events.append(event)
        obs.counter_add(
            "resilience.faults", 1, kind=kind, scope=scope, action=action
        )
        if action == "respawned":
            obs.counter_add("pool.worker.respawns", 1, kind=kind)
        return event

    # Introspection --------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True when anything at all went wrong."""
        return bool(self.events)

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_retried(self) -> int:
        return sum(1 for e in self.events if e.action == "retried")

    @property
    def n_fallbacks(self) -> int:
        return sum(1 for e in self.events if e.action == "serial-fallback")

    def jobs_touched(self) -> set[int]:
        """Job indices with at least one recorded event."""
        return {e.job for e in self.events if e.job is not None}

    def by_action(self) -> dict[str, int]:
        """Histogram of actions taken."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.action] = out.get(e.action, 0) + 1
        return out

    def by_kind(self) -> dict[str, int]:
        """Histogram of failure kinds observed."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def merge(self, other: "DegradationReport") -> "DegradationReport":
        """Fold another report's events into this one (returns self)."""
        self.events.extend(other.events)
        return self

    def summary(self) -> str:
        """One-line human-readable account."""
        if not self.events:
            return "healthy: no faults observed"
        kinds = ", ".join(f"{k}x{n}" for k, n in sorted(self.by_kind().items()))
        actions = ", ".join(f"{a}x{n}" for a, n in sorted(self.by_action().items()))
        return f"{self.n_events} fault(s) [{kinds}] absorbed by [{actions}]"
