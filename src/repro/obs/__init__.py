"""``repro.obs`` — the unified telemetry plane.

One process-local metrics registry + span API that every layer emits
into (query pipeline, store service, worker pools, resilience ladder,
interaction loop) and that tests, benchmarks, and status views read
back out.  Design rules, in priority order:

1. **Off is free.**  Telemetry defaults to the no-op
   :class:`~repro.obs.metrics.NullRegistry`; every facade helper
   checks one ``enabled`` attribute and returns.  ``span()`` under a
   disabled registry returns the shared :data:`~repro.obs.spans.
   NULL_SPAN` — identity-stable, zero allocation.
2. **Emits never raise.**  All facade helpers swallow registry/sink
   failures; instrumented hot paths cannot be taken down by their own
   telemetry.  Reprolint rule RL007 enforces that code outside this
   package uses only these guarded helpers (and uses spans only as
   context managers).
3. **No locks on the hot path.**  See :mod:`repro.obs.metrics` —
   per-thread shards, one lock-guarded merge at snapshot time.

Quick start::

    from repro import obs

    obs.enable()                                 # live registry
    ... run queries ...
    snap = obs.telemetry_snapshot()
    print(snap.counter_total("query.count"))
    print(obs.render_prometheus(snap))           # scrape-ready text
    obs.disable()                                # back to no-op

The metric name catalogue and span taxonomy live in DESIGN.md §10.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.export import (
    JsonlExporter,
    render_jsonl_event,
    render_jsonl_snapshot,
    render_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    NULL_REGISTRY,
    HistogramSnapshot,
    MetricsRegistry,
    NullRegistry,
    Snapshot,
    TimedFamily,
    labels_key,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, StageSpan

if TYPE_CHECKING:
    from repro.core.plan.trace import QueryTrace

__all__ = [
    # registry types & exporters
    "MetricsRegistry", "NullRegistry", "NULL_REGISTRY", "Snapshot",
    "HistogramSnapshot", "DEFAULT_BOUNDS", "labels_key",
    "JsonlExporter", "render_prometheus", "render_jsonl_snapshot",
    "render_jsonl_event",
    # spans
    "Span", "NullSpan", "NULL_SPAN", "StageSpan",
    # facade
    "get_registry", "set_registry", "enable", "disable", "enabled",
    "counter_add", "gauge_set", "observe", "count_query", "emit_event", "span",
    "stage_span", "telemetry_snapshot",
]

#: Union alias for annotations: anything installable as the registry.
Registry = MetricsRegistry | NullRegistry

#: The installed registry; module-global so every emit site shares it.
_active: Registry = NULL_REGISTRY


# Lifecycle ---------------------------------------------------------------

def get_registry() -> Registry:
    """The currently installed registry (the no-op one by default)."""
    return _active


def set_registry(registry: Registry) -> Registry:
    """Install ``registry`` as the process registry; returns the old one."""
    global _active
    previous = _active
    _active = registry
    return previous


def enable(*, event_log: "str | Path | None" = None) -> MetricsRegistry:
    """Install (and return) a fresh live :class:`MetricsRegistry`.

    ``event_log`` attaches a :class:`JsonlExporter` sink so span-end
    events stream to disk as they happen.
    """
    sink = JsonlExporter(event_log) if event_log is not None else None
    registry = MetricsRegistry(event_sink=sink)
    set_registry(registry)
    return registry


def disable() -> None:
    """Return the process to the free no-op registry."""
    set_registry(NULL_REGISTRY)


def enabled() -> bool:
    """Is a live registry installed?"""
    return _active.enabled


# Guarded emit helpers ----------------------------------------------------
#
# These are the only sanctioned emission surface outside repro.obs
# (reprolint RL007).  Each checks the enabled flag first and swallows
# every exception: telemetry is an observer, never a failure mode.

def counter_add(name: str, value: float = 1.0, **labels: object) -> None:
    """Add to a counter (no-op and allocation-light when disabled)."""
    registry = _active
    if not registry.enabled:
        return
    try:
        registry.counter_add(name, value, labels or None)
    except Exception:
        pass


def gauge_set(name: str, value: float, **labels: object) -> None:
    """Set a gauge to its latest value."""
    registry = _active
    if not registry.enabled:
        return
    try:
        registry.gauge_set(name, value, labels or None)
    except Exception:
        pass


def observe(name: str, value: float, **labels: object) -> None:
    """Record one histogram observation."""
    registry = _active
    if not registry.enabled:
        return
    try:
        registry.observe(name, value, labels or None)
    except Exception:
        pass


#: Each query's latency, count and degradations, by strategy.
QUERY_METRICS = TimedFamily("query.seconds", "strategy", ("query.count", "query.degraded"))


def count_query(strategy: str, seconds: float, degraded: bool) -> None:
    """The engine's per-query emit: ``query.count``, ``query.seconds``
    and, when degraded, ``query.degraded``, each labelled by strategy."""
    registry = _active
    if not registry.enabled:
        return
    try:
        registry.observe_timed(QUERY_METRICS, strategy, seconds, 0, degraded)
    except Exception:
        pass


def emit_event(event: Mapping[str, Any]) -> None:
    """Forward one discrete event to the registry's sink, if any."""
    registry = _active
    if not registry.enabled:
        return
    try:
        registry.emit_event(event)
    except Exception:
        pass


# Spans -------------------------------------------------------------------

def span(name: str, attrs: Mapping[str, object] | None = None) -> "Span | NullSpan":
    """A timed section: ``with obs.span("stage.brush_hit"): ...``.

    Disabled fast path: returns the shared :data:`NULL_SPAN` — the
    same object every call, so "telemetry off" allocates nothing here.
    """
    registry = _active
    if not registry.enabled:
        return NULL_SPAN
    return Span(name, registry, attrs)


def stage_span(trace: "QueryTrace", stage: str) -> StageSpan:
    """The query executor's per-stage span.

    Always a live object (the trace must be back-filled even with
    telemetry off — traces are part of the query result, not of the
    metrics plane); registry emission inside it is guarded and skipped
    when disabled.
    """
    return StageSpan(trace, stage, _active)


# Introspection -----------------------------------------------------------

def telemetry_snapshot() -> Snapshot:
    """Snapshot of the installed registry (empty when disabled)."""
    return _active.snapshot()
