"""MetricsRegistry unit tests: instruments, shards, lifecycle, guards."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
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

# labels_key --------------------------------------------------------------

def test_labels_key_sorts_and_stringifies():
    assert labels_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
    assert labels_key(None) == ()
    assert labels_key({}) == ()


def test_labels_key_is_order_independent():
    assert labels_key({"a": 1, "b": 2}) == labels_key({"b": 2, "a": 1})


# Counters / gauges / histograms ------------------------------------------

def test_counter_add_accumulates():
    reg = MetricsRegistry()
    reg.counter_add("q.count")
    reg.counter_add("q.count", 2.0)
    reg.counter_add("q.count", 1.0, {"strategy": "indexed"})
    snap = reg.snapshot()
    assert snap.counter("q.count") == 3.0
    assert snap.counter("q.count", strategy="indexed") == 1.0
    assert snap.counter_total("q.count") == 4.0
    assert snap.counter("never.touched") == 0.0


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge_set("inflight", 3)
    reg.gauge_set("inflight", 1)
    snap = reg.snapshot()
    assert snap.gauge("inflight") == 1.0
    assert snap.gauge("missing") is None


def test_histogram_observe_buckets_and_sum():
    reg = MetricsRegistry()
    for v in (0.0001, 0.0002, 5.0, 100.0):
        reg.observe("lat", v)
    hist = reg.snapshot().histogram("lat")
    assert hist is not None
    assert hist.count == 4
    assert hist.sum == pytest.approx(105.0002)
    assert sum(hist.counts) == hist.count
    # 100.0 exceeds every default bound → overflow bucket
    assert hist.counts[-1] == 1
    assert hist.bounds == DEFAULT_BOUNDS


def test_observation_on_bucket_boundary_lands_in_that_bucket():
    # bisect_right: a value equal to a bound belongs to that bound's
    # bucket (Prometheus `le` semantics are inclusive)
    hist = HistogramSnapshot.of([0.001], bounds=(0.001, 0.01))
    assert hist.counts == (1, 0, 0)


def test_declare_histogram_fixes_custom_bounds():
    reg = MetricsRegistry()
    reg.declare_histogram("items", (10, 100, 1000))
    reg.observe("items", 50)
    hist = reg.snapshot().histogram("items")
    assert hist is not None
    assert hist.bounds == (10.0, 100.0, 1000.0)
    assert hist.counts == (0, 1, 0, 0)


def test_declare_histogram_rejects_empty_bounds():
    with pytest.raises(ValueError):
        MetricsRegistry().declare_histogram("x", ())


# Thread shards -----------------------------------------------------------

def test_each_thread_gets_its_own_shard_and_nothing_is_lost():
    reg = MetricsRegistry()
    n_threads, per_thread = 8, 500

    def work():
        for _ in range(per_thread):
            reg.counter_add("hits")
            reg.observe("lat", 0.001)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = reg.snapshot()
    assert snap.counter("hits") == n_threads * per_thread
    hist = snap.histogram("lat")
    assert hist is not None and hist.count == n_threads * per_thread


def test_snapshot_is_immutable_view_not_live():
    reg = MetricsRegistry()
    reg.counter_add("c")
    snap = reg.snapshot()
    reg.counter_add("c")
    assert snap.counter("c") == 1.0
    assert reg.snapshot().counter("c") == 2.0


def test_reset_clears_all_instruments():
    reg = MetricsRegistry()
    reg.counter_add("c")
    reg.gauge_set("g", 1.0)
    reg.observe("h", 0.5)
    reg.reset()
    snap = reg.snapshot()
    assert snap.counters == {} and snap.gauges == {} and snap.histograms == {}
    # the shard survives a reset and keeps working
    reg.counter_add("c")
    assert reg.snapshot().counter("c") == 1.0


# Timed families ----------------------------------------------------------

TIMED = TimedFamily("lat", "stage", ("hits", "misses", "taints"))
TIMED_EVENTS = [  # (label, seconds, counter, degraded)
    ("a", 0.0, 0, False),
    ("a", 0.003, 1, True),
    ("b", 2e-5, 1, False),
    ("a", 0.0, 0, False),
    ("b", 30.0, 1, True),
]


def test_observe_timed_snapshots_like_separate_emits():
    """One timed emit lands exactly what an observe plus its counter
    adds would, under the same names and labels."""
    timed, plain = MetricsRegistry(), MetricsRegistry()
    for label, seconds, counter, degraded in TIMED_EVENTS:
        timed.observe_timed(TIMED, label, seconds, counter, degraded)
        labels = {"stage": label}
        plain.observe("lat", seconds, labels)
        plain.counter_add(TIMED.counters[counter], 1.0, labels)
        if degraded:
            plain.counter_add(TIMED.counters[-1], 1.0, labels)
    assert timed.snapshot() == plain.snapshot()
    assert ("hits", (("stage", "b"),)) not in timed.snapshot().counters


def test_observe_timed_after_reset_and_across_threads():
    """Emits from more threads than cores, with snapshots folding the
    counts while they run, lose nothing."""
    reg = MetricsRegistry()
    reg.observe_timed(TIMED, "a", 0.5, 1, False)
    reg.reset()
    assert reg.snapshot() == Snapshot()
    n_threads, per_thread = 8, 300

    def work():
        for _ in range(per_thread):
            reg.observe_timed(TIMED, "a", 0.0, 0, False)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            reg.snapshot()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    snap = reg.snapshot()
    assert snap.counter("hits", stage="a") == n_threads * per_thread
    assert snap.histogram("lat", stage="a").counts[0] == n_threads * per_thread


# Snapshot rendering helpers ----------------------------------------------

def test_as_dict_renders_labelled_keys_and_quantiles():
    reg = MetricsRegistry()
    reg.counter_add("q.count", 2, {"strategy": "indexed"})
    reg.gauge_set("inflight", 3)
    for v in (0.001, 0.002, 0.004):
        reg.observe("lat", v)
    doc = reg.snapshot().as_dict()
    assert doc["counters"] == {"q.count{strategy=indexed}": 2.0}
    assert doc["gauges"] == {"inflight": 3.0}
    hist = doc["histograms"]["lat"]
    assert hist["count"] == 3
    assert hist["sum"] == pytest.approx(0.007)
    assert hist["p50"] <= hist["p95"]


# NullRegistry / facade lifecycle ----------------------------------------

def test_null_registry_is_inert():
    NULL_REGISTRY.counter_add("c")
    NULL_REGISTRY.gauge_set("g", 1.0)
    NULL_REGISTRY.observe("h", 0.5)
    NULL_REGISTRY.emit_event({"type": "x"})
    NULL_REGISTRY.declare_histogram("h", (1.0,))
    NULL_REGISTRY.reset()
    snap = NULL_REGISTRY.snapshot()
    assert snap.counters == {} and snap.gauges == {} and snap.histograms == {}
    assert NULL_REGISTRY.enabled is False
    assert isinstance(NULL_REGISTRY, NullRegistry)


def test_telemetry_is_disabled_by_default():
    assert obs.enabled() is False
    assert obs.get_registry() is NULL_REGISTRY


def test_enable_disable_roundtrip():
    reg = obs.enable()
    assert obs.enabled() is True
    assert obs.get_registry() is reg
    assert isinstance(reg, MetricsRegistry)
    obs.disable()
    assert obs.enabled() is False
    assert obs.get_registry() is NULL_REGISTRY


def test_facade_emits_reach_installed_registry(registry):
    obs.counter_add("q.count", 1, strategy="indexed")
    obs.gauge_set("inflight", 2)
    obs.observe("lat", 0.001, stage="brush_hit")
    snap = obs.telemetry_snapshot()
    assert snap.counter("q.count", strategy="indexed") == 1.0
    assert snap.gauge("inflight") == 2.0
    hist = snap.histogram("lat", stage="brush_hit")
    assert hist is not None and hist.count == 1


def test_facade_emits_are_noops_when_disabled():
    obs.disable()
    obs.counter_add("q.count")
    obs.observe("lat", 0.5)
    obs.gauge_set("g", 1.0)
    assert obs.telemetry_snapshot() == Snapshot()


def test_guarded_emits_never_raise():
    class BrokenRegistry:
        enabled = True
        event_sink = None

        def counter_add(self, *a, **k):
            raise RuntimeError("boom")

        gauge_set = observe = emit_event = counter_add

        def snapshot(self):
            return Snapshot()

    obs.set_registry(BrokenRegistry())  # type: ignore[arg-type]
    obs.counter_add("c")
    obs.gauge_set("g", 1.0)
    obs.observe("h", 0.5)
    obs.emit_event({"type": "x"})


def test_event_sink_failures_do_not_escape_facade(registry):
    class BrokenSink:
        def write_event(self, event, *, ts=None):
            raise OSError("disk full")

    registry.event_sink = BrokenSink()
    obs.emit_event({"type": "x"})  # must not raise
