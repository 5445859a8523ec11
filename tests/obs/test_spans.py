"""Span API tests: timing, null fast path, trace back-fill."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.plan.trace import QueryTrace
from repro.obs.spans import NULL_SPAN, NullSpan, Span


# Disabled fast path ------------------------------------------------------

def test_disabled_span_is_the_shared_null_singleton():
    obs.disable()
    a = obs.span("stage.brush_hit")
    b = obs.span("anything.else", {"k": "v"})
    assert a is b is NULL_SPAN  # identity = zero-allocation contract


def test_null_span_is_a_working_context_manager():
    with obs.span("x") as sp:
        assert isinstance(sp, NullSpan)
        assert sp.annotate(k=1) is sp
    assert sp.elapsed_s == 0.0


def test_null_span_swallows_nothing():
    # exceptions propagate straight through the no-op span
    with pytest.raises(ValueError):
        with obs.span("x"):
            raise ValueError("real error")


# Live spans --------------------------------------------------------------

def test_live_span_records_duration_histogram(registry):
    with obs.span("stage.brush_hit") as sp:
        assert isinstance(sp, Span)
    assert sp.elapsed_s > 0.0
    hist = obs.telemetry_snapshot().histogram("span.seconds", name="stage.brush_hit")
    assert hist is not None and hist.count == 1
    assert hist.sum == pytest.approx(sp.elapsed_s)


def test_span_annotations_become_labels(registry):
    with obs.span("render.frame", {"workers": 4}) as sp:
        sp.annotate(mode="pooled")
    hist = obs.telemetry_snapshot().histogram(
        "span.seconds", name="render.frame", workers="4", mode="pooled"
    )
    assert hist is not None and hist.count == 1


def test_span_forwards_end_event_to_sink(registry):
    events: list[dict] = []

    class Sink:
        def write_event(self, event, *, ts=None):
            events.append(dict(event))

    registry.event_sink = Sink()
    with obs.span("stage.combine"):
        pass
    assert len(events) == 1
    (event,) = events
    assert event["type"] == "span"
    assert event["name"] == "stage.combine"
    assert event["seconds"] > 0.0
    assert event["error"] is None


def test_span_event_records_exception_type(registry):
    events: list[dict] = []

    class Sink:
        def write_event(self, event, *, ts=None):
            events.append(dict(event))

    registry.event_sink = Sink()
    with pytest.raises(KeyError):
        with obs.span("stage.fails"):
            raise KeyError("missing")
    assert events[0]["error"] == "KeyError"


def test_span_emission_failure_never_raises(registry):
    class Sink:
        def write_event(self, event, *, ts=None):
            raise OSError("disk full")

    registry.event_sink = Sink()
    with obs.span("x"):
        pass  # sink blew up on exit; traced section must not notice


# StageSpan ---------------------------------------------------------------

def test_stage_span_backfills_trace_without_registry():
    obs.disable()
    trace = QueryTrace()
    with obs.stage_span(trace, "brush_hit") as sp:
        sp.n_in = 100
        sp.n_out = 40
        sp.detail = "d=2.0"
    assert len(trace.stages) == 1
    rec = trace.stages[0]
    assert rec.stage == "brush_hit"
    assert rec.n_in == 100 and rec.n_out == 40
    assert rec.elapsed_s > 0.0
    assert rec.cache_hit is False and rec.degraded is False
    assert rec.detail == "d=2.0"
    # disabled registry → no metric emission
    assert obs.telemetry_snapshot().histograms == {}


def test_stage_span_cache_hit_records_exact_zero():
    obs.disable()
    trace = QueryTrace()
    with obs.stage_span(trace, "combine") as sp:
        sp.cache_hit = True
        sp.n_out = 7
    assert trace.stages[0].elapsed_s == 0.0  # exact, pre-telemetry contract
    assert trace.stages[0].cache_hit is True


def test_stage_span_records_nothing_on_exception():
    obs.disable()
    trace = QueryTrace()
    with pytest.raises(RuntimeError):
        with obs.stage_span(trace, "agg_spatial"):
            raise RuntimeError("stage blew up")
    assert trace.stages == []


def test_stage_span_emits_stage_metrics_when_enabled(registry):
    trace = QueryTrace()
    with obs.stage_span(trace, "brush_hit") as sp:
        sp.n_out = 3
    with obs.stage_span(trace, "brush_hit") as sp:
        sp.cache_hit = True
    with obs.stage_span(trace, "combine") as sp:
        sp.degraded = True
    snap = obs.telemetry_snapshot()
    assert snap.counter("query.stage.cache_misses", stage="brush_hit") == 1.0
    assert snap.counter("query.stage.cache_hits", stage="brush_hit") == 1.0
    assert snap.counter("query.stage.taints", stage="combine") == 1.0
    hist = snap.histogram("query.stage.seconds", stage="brush_hit")
    assert hist is not None and hist.count == 2
