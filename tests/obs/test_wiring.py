"""Telemetry wiring tests: emission points and trace parity.

Two contracts:

* **Trace parity** — routing per-stage timing through the span API
  must reproduce exactly the :class:`QueryTrace` the pre-telemetry
  executor built: same stage names in order, same cache-hit flags,
  same taint flags, zero elapsed on hits — with telemetry on or off.
* **Emission** — each instrumented layer (engine, executor, service,
  pool, resilience) lands its documented metrics in the registry, and
  a disabled registry observes nothing.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.parallel.pool import WorkerPool
from repro.resilience.health import DegradationReport
from repro.store.service import DatasetService

# the planned stage sequence for an aggregate-route query without a
# cell assignment (group_support is planned only when cells are assigned)
STAGES = [
    "agg_temporal",
    "agg_spatial",
    "agg_brush",
    "classify",
    "drilldown",
    "aggregate",
]


@pytest.fixture()
def west_canvas(arena):
    c = BrushCanvas()
    r = arena.radius
    c.add(
        stroke_from_rect(
            (-r, -0.6 * r), (-0.7 * r, 0.6 * r), radius=0.12 * r, color="red"
        )
    )
    return c


def _trace_shape(trace):
    """The structural fingerprint parity tests compare (no timings)."""
    return [
        (r.stage, r.cache_hit, r.degraded, r.n_in, r.n_out, r.detail)
        for r in trace.stages
    ]


# Trace parity ------------------------------------------------------------

class TestTraceParity:
    def test_cold_trace_structure(self, study_dataset, west_canvas):
        engine = CoordinatedBrushingEngine(study_dataset)
        trace = engine.query(west_canvas, "red", window=TimeWindow.end(0.2)).trace
        assert trace.stage_names() == STAGES
        assert all(not r.cache_hit for r in trace.stages)
        assert all(not r.degraded for r in trace.stages)
        assert all(r.elapsed_s > 0.0 for r in trace.stages)

    def test_warm_trace_hits_record_exact_zero(self, study_dataset, west_canvas):
        engine = CoordinatedBrushingEngine(study_dataset)
        w = TimeWindow.end(0.2)
        engine.query(west_canvas, "red", window=w)
        warm = engine.query(west_canvas, "red", window=w).trace
        assert warm.stage_names() == STAGES
        hits = [r for r in warm.stages if r.cache_hit]
        assert len(hits) == warm.cache_hits > 0
        assert all(r.elapsed_s == 0.0 for r in hits)

    def test_degraded_trace_taint_flags(self, unbuilt_engine, west_canvas):
        trace = unbuilt_engine.query(west_canvas, "red", window=TimeWindow.end(0.2)).trace
        flags = {r.stage: r.degraded for r in trace.stages}
        # the degraded stage and everything downstream of it is tainted;
        # the temporal mask is pyramid-independent and stays clean
        assert flags == {
            "temporal_mask": False,
            "brush_hit": True,
            "combine": True,
            "aggregate": True,
        }

    def test_trace_identical_with_telemetry_on_and_off(
        self, study_dataset, west_canvas
    ):
        w = TimeWindow.end(0.2)
        obs.disable()
        engine_off = CoordinatedBrushingEngine(study_dataset)
        off_cold = _trace_shape(engine_off.query(west_canvas, "red", window=w).trace)
        off_warm = _trace_shape(engine_off.query(west_canvas, "red", window=w).trace)
        obs.enable()
        engine_on = CoordinatedBrushingEngine(study_dataset)
        on_cold = _trace_shape(engine_on.query(west_canvas, "red", window=w).trace)
        on_warm = _trace_shape(engine_on.query(west_canvas, "red", window=w).trace)
        assert on_cold == off_cold
        assert on_warm == off_warm


# Emission points ---------------------------------------------------------

class TestEmission:
    def test_disabled_by_default_and_observes_nothing(
        self, study_dataset, west_canvas
    ):
        assert obs.enabled() is False
        engine = CoordinatedBrushingEngine(study_dataset)
        engine.query(west_canvas, "red")
        snap = obs.telemetry_snapshot()
        assert snap.counters == {} and snap.histograms == {}

    def test_engine_emits_query_metrics(self, registry, study_dataset, west_canvas):
        engine = CoordinatedBrushingEngine(study_dataset)
        engine.query(west_canvas, "red", window=TimeWindow.end(0.2))
        snap = obs.telemetry_snapshot()
        assert snap.counter("query.count", strategy="aggregate") == 1.0
        hist = snap.histogram("query.seconds", strategy="aggregate")
        assert hist is not None and hist.count == 1
        # cold query: every stage missed
        assert snap.counter_total("query.stage.cache_misses") == len(STAGES)
        assert snap.counter_total("query.stage.cache_hits") == 0.0

    def test_executor_emits_per_stage_hits_on_warm_query(
        self, registry, study_dataset, west_canvas
    ):
        engine = CoordinatedBrushingEngine(study_dataset)
        w = TimeWindow.end(0.2)
        engine.query(west_canvas, "red", window=w)
        warm = engine.query(west_canvas, "red", window=w)
        snap = obs.telemetry_snapshot()
        assert snap.counter_total("query.stage.cache_hits") == warm.trace.cache_hits
        for record in warm.trace.stages:
            hist = snap.histogram("query.stage.seconds", stage=record.stage)
            assert hist is not None and hist.count == 2

    def test_degraded_query_emits_taint_counters(
        self, registry, unbuilt_engine, west_canvas
    ):
        res = unbuilt_engine.query(west_canvas, "red", window=TimeWindow.end(0.2))
        snap = obs.telemetry_snapshot()
        assert res.degraded
        assert snap.counter_total("query.degraded") == 1.0
        n_tainted = sum(1 for r in res.trace.stages if r.degraded)
        assert snap.counter_total("query.stage.taints") == n_tainted

    def test_service_emits_session_attribution(
        self, registry, study_dataset, viewport
    ):
        service = DatasetService(study_dataset)
        a = service.session(viewport)
        b = service.session(viewport)
        a.run_query("red")
        a.run_query("red")
        b.run_query("red")
        snap = obs.telemetry_snapshot()
        assert snap.counter("service.sessions.opened") == 2.0
        assert snap.counter("session.queries", session=a.session_id) == 2.0
        assert snap.counter("session.queries", session=b.session_id) == 1.0
        assert snap.counter_total("session.queries") == 3.0
        assert snap.counter("query.count", strategy="empty-brush") == 3.0
        # the lock-free read path: every query lands on a pinned epoch
        # snapshot and no lock-wait gauge exists anymore
        assert snap.counter_total("service.snapshot.queries") == 3.0
        assert snap.counter("service.snapshot.pinned") == 2.0
        assert snap.gauge("service.snapshot.pins") == 2.0
        assert snap.gauge("service.snapshot.active_epoch") is not None
        assert snap.gauge("service.lock.wait_seconds") is None

    def test_pool_map_emits_call_and_item_counters(self, registry):
        with WorkerPool(0) as pool:
            pool.map(str, [1, 2, 3])
        snap = obs.telemetry_snapshot()
        assert snap.counter("pool.map.calls", mode="serial") == 1.0
        assert snap.counter("pool.map.items", mode="serial") == 3.0

    def test_resilience_faults_route_through_report(self, registry):
        report = DegradationReport()
        report.record("index-build-failure", scope="index", action="degraded-brute-force")
        report.record("worker-crash", scope="tile", action="respawned")
        snap = obs.telemetry_snapshot()
        assert (
            snap.counter(
                "resilience.faults",
                kind="index-build-failure",
                scope="index",
                action="degraded-brute-force",
            )
            == 1.0
        )
        assert snap.counter("pool.worker.respawns", kind="worker-crash") == 1.0

    def test_app_telemetry_surfaces_snapshot(self, registry, study_dataset):
        from repro.app import TrajectoryExplorer

        explorer = TrajectoryExplorer(study_dataset)
        explorer.session.run_query("red")
        doc = explorer.telemetry()
        assert doc["enabled"] is True
        assert doc["counters"]["query.count{strategy=empty-brush}"] == 1.0

    def test_app_telemetry_reports_disabled(self, study_dataset):
        from repro.app import TrajectoryExplorer

        obs.disable()
        explorer = TrajectoryExplorer(study_dataset)
        doc = explorer.telemetry()
        assert doc["enabled"] is False
        assert doc["counters"] == {}


class TestAggregateEmission:
    """The aggregate route's documented metrics: pyramid build time,
    per-class supernode counts, and drill-down workload size."""

    def test_build_and_classification_metrics(
        self, registry, study_dataset, west_canvas
    ):
        engine = CoordinatedBrushingEngine(study_dataset)
        engine.query(west_canvas, "red", window=TimeWindow.end(0.2))
        snap = obs.telemetry_snapshot()
        build = snap.histogram("service.aggregate.build_seconds")
        assert build is not None and build.count == 1
        assert snap.counter("query.count", strategy="aggregate") == 1.0
        # the three classes partition the occupied supernodes exactly
        per_class = {
            label: snap.counter("service.aggregate.supernodes", **{"class": label})
            for label in ("all_in", "inconclusive", "all_out")
        }
        occupied = int((engine.pyramid.node_counts > 0).sum())
        assert sum(per_class.values()) == occupied
        assert any(
            name == "service.aggregate.drilldown_segments"
            for name, _ in snap.counters
        )

    def test_warm_query_does_not_recount(self, registry, study_dataset, west_canvas):
        engine = CoordinatedBrushingEngine(study_dataset)
        w = TimeWindow.end(0.2)
        engine.query(west_canvas, "red", window=w)
        cold = obs.telemetry_snapshot().counter_total("service.aggregate.supernodes")
        engine.query(west_canvas, "red", window=w)  # all stages cache-hit
        warm = obs.telemetry_snapshot().counter_total("service.aggregate.supernodes")
        assert warm == cold
