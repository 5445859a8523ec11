"""Span tracing: timed sections that feed the metrics plane.

Two span flavors, both context managers (the only sanctioned form —
reprolint RL007 flags bare span calls):

* :func:`repro.obs.span` — a generic timed section.  Its duration
  lands in the ``span.seconds`` histogram (labelled by span name) and,
  when an event sink is configured, a discrete span-end event is
  forwarded to it.  With telemetry disabled the facade hands back the
  shared :data:`NULL_SPAN` — no allocation, no clock reads.
* :class:`StageSpan` — the query-pipeline bridge.  It subsumes the
  hand-rolled timing the executor used to do: entering starts the
  clock, the executor annotates cardinality/cache/taint facts on the
  span, and exiting **back-fills the** :class:`~repro.core.plan.trace.
  QueryTrace` with exactly the :class:`StageRecord` the pre-telemetry
  code built — plus per-stage histogram/counter emission when a live
  registry is installed.  A stage that raises records nothing, which
  is also the pre-telemetry behavior.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import Any, Mapping

from repro.core.plan.trace import QueryTrace, StageRecord
from repro.obs.metrics import TimedFamily

__all__ = ["Span", "NullSpan", "NULL_SPAN", "StageSpan", "STAGE_METRICS"]

#: Each stage's latency, and its cache hits, cache misses and taints.
STAGE_METRICS = TimedFamily(
    "query.stage.seconds",
    "stage",
    ("query.stage.cache_hits", "query.stage.cache_misses", "query.stage.taints"),
)


class NullSpan:
    """The span that does nothing; one shared instance per process.

    Identity is the contract: ``span(a) is span(b)`` whenever telemetry
    is disabled, so the fast path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def annotate(self, **attrs: object) -> "NullSpan":
        """No-op (matches :meth:`Span.annotate`)."""
        return self

    @property
    def elapsed_s(self) -> float:
        return 0.0


#: The one process-wide no-op span.
NULL_SPAN = NullSpan()


class Span:
    """A timed section bound to a live registry.

    Built by :func:`repro.obs.span`; not intended for direct
    construction.  On exit the duration is recorded into the
    ``span.seconds`` histogram under the span's name (plus any
    annotations) and a span-end event is forwarded to the registry's
    event sink.  Emission is guarded: a failing sink or registry can
    never raise into the traced section.
    """

    __slots__ = ("name", "attrs", "registry", "t0", "elapsed_s")

    def __init__(
        self, name: str, registry: Any, attrs: Mapping[str, object] | None = None
    ) -> None:
        self.name = name
        self.registry = registry
        self.attrs: dict[str, object] = dict(attrs) if attrs else {}
        self.t0 = 0.0
        self.elapsed_s = 0.0

    def annotate(self, **attrs: object) -> "Span":
        """Attach label/attribute pairs mid-flight; returns self."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.elapsed_s = time.perf_counter() - self.t0
        try:
            labels = {"name": self.name, **{k: str(v) for k, v in self.attrs.items()}}
            self.registry.observe("span.seconds", self.elapsed_s, labels)
            if self.registry.event_sink is not None:
                self.registry.emit_event(
                    {
                        "type": "span",
                        "name": self.name,
                        "seconds": self.elapsed_s,
                        "error": exc_type.__name__ if exc_type is not None else None,
                        "attrs": {k: str(v) for k, v in self.attrs.items()},
                    }
                )
        except Exception:
            pass  # telemetry must never take the traced section down
        return None


class StageSpan:
    """One query-pipeline stage's span; back-fills the query trace.

    The executor sets the annotation fields (``n_in``, ``n_out``,
    ``cache_hit``, ``degraded``, ``detail``) inside the ``with`` block;
    ``__exit__`` appends the equivalent ``StageRecord`` to the bound
    trace and — only when a live registry is installed — emits the
    per-stage latency histogram and hit/miss/taint counters.

    Cache hits record ``elapsed_s == 0.0`` exactly, matching the
    pre-telemetry trace contract ("near zero on a cache hit" renders
    as ``hit`` in :meth:`StageRecord.describe`).
    """

    __slots__ = (
        "trace", "stage", "registry", "t0", "elapsed_s",
        "n_in", "n_out", "cache_hit", "degraded", "detail",
    )

    def __init__(self, trace: QueryTrace, stage: str, registry: Any) -> None:
        self.trace = trace
        self.stage = stage
        self.registry = registry
        self.t0 = 0.0
        self.elapsed_s = 0.0
        self.n_in = 0
        self.n_out = 0
        self.cache_hit = False
        self.degraded = False
        self.detail = ""

    def __enter__(self) -> "StageSpan":
        self.t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            # a raising stage records nothing (pre-telemetry behavior)
            return None
        self.elapsed_s = 0.0 if self.cache_hit else time.perf_counter() - self.t0
        self.trace.record(
            StageRecord(
                stage=self.stage,
                elapsed_s=self.elapsed_s,
                n_in=self.n_in,
                n_out=self.n_out,
                cache_hit=self.cache_hit,
                degraded=self.degraded,
                detail=self.detail,
            )
        )
        registry = self.registry
        if registry.enabled:
            try:
                registry.observe_timed(
                    STAGE_METRICS, self.stage, self.elapsed_s,
                    0 if self.cache_hit else 1, self.degraded,
                )
            except Exception:
                pass  # guarded emit: never raise into the query path
        return None
