"""Tests for the staged query-plan pipeline (plan/execute split)."""

import numpy as np
import pytest

from repro.core.brush import BrushStroke, stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.plan import (
    QueryPlanner,
    QuerySpec,
    QueryTrace,
    StageCache,
    StageRecord,
)
from repro.core.temporal import TimeWindow
from repro.layout.cells import assign_groups_to_cells
from repro.layout.configs import preset
from repro.layout.groups import TrajectoryGroups


AGG_STAGES = ["agg_temporal", "agg_spatial", "agg_brush", "classify", "drilldown"]


@pytest.fixture()
def engine(study_dataset):
    """A fresh engine per test: stage-cache state must not leak."""
    return CoordinatedBrushingEngine(study_dataset)


@pytest.fixture()
def west_canvas(arena):
    c = BrushCanvas()
    r = arena.radius
    c.add(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), radius=0.12 * r, color="red"))
    return c


def _spec(canvas, dataset, color="red", window=None, assignment=None):
    return QuerySpec.capture(
        dataset, canvas, color, window or TimeWindow.all(), assignment
    )


class TestQuerySpec:
    def test_hashable_and_frozen(self, west_canvas, study_dataset):
        spec = _spec(west_canvas, study_dataset)
        assert hash(spec) == hash(_spec(west_canvas, study_dataset))
        with pytest.raises(AttributeError):
            spec.color = "green"

    def test_stroke_changes_color_epoch(self, west_canvas, study_dataset):
        before = _spec(west_canvas, study_dataset)
        west_canvas.add(BrushStroke(np.array([[0.0, 0.0]]), 0.1, "red"))
        after = _spec(west_canvas, study_dataset)
        assert after.color_epoch > before.color_epoch
        assert after.canvas_epoch > before.canvas_epoch

    def test_other_color_stroke_keeps_color_epoch(self, west_canvas, study_dataset):
        before = _spec(west_canvas, study_dataset)
        west_canvas.add(BrushStroke(np.array([[0.0, 0.0]]), 0.1, "green"))
        after = _spec(west_canvas, study_dataset)
        assert after.color_epoch == before.color_epoch  # red untouched
        assert after.canvas_epoch > before.canvas_epoch

    def test_window_normalization(self, west_canvas, study_dataset):
        a = _spec(west_canvas, study_dataset, window=TimeWindow.all())
        b = _spec(west_canvas, study_dataset, window=TimeWindow.fraction(0.0, 1.0))
        assert a.window_key == b.window_key

    def test_two_canvases_never_collide(self, study_dataset, arena):
        r = arena.radius
        c1, c2 = BrushCanvas(), BrushCanvas()
        c1.add(stroke_from_rect((-r, 0), (0, r), 0.1 * r, "red"))
        c2.add(stroke_from_rect((0, 0), (r, r), 0.1 * r, "red"))
        s1 = _spec(c1, study_dataset)
        s2 = _spec(c2, study_dataset)
        assert s1 != s2  # uids differ even if epochs coincide


class TestStageCache:
    def test_lru_eviction(self):
        cache = StageCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.lookup(("a",))  # refresh a
        cache.put(("c",), 3)  # evicts b
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache
        assert cache.stats.evictions == 1

    def test_lookup_counts_hits_and_misses(self):
        cache = StageCache()
        _, found = cache.lookup(("x",))
        assert not found
        cache.put(("x",), None)  # None is a legal value
        value, found = cache.lookup(("x",))
        assert found and value is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_invalidate_by_dataset_epoch(self):
        """Invalidation is structural: a new dataset epoch's key misses,
        and the stale entry ages out of the LRU instead of being swept."""
        old = ("agg_temporal", ("ds", 1), ("win", ("*",)))
        new = ("agg_temporal", ("ds", 2), ("win", ("*",)))
        cache = StageCache(capacity=2)
        cache.put(old, "old")
        _, found = cache.lookup(new)
        assert not found
        cache.put(new, "new")
        cache.put(("agg_spatial", ("ds", 2), ("cv", (1, 3)), "red"), "s")
        assert old not in cache and new in cache
        assert cache.stats.evictions == 1

    def test_invalidate_canvas_epoch_spares_temporal(self, engine, west_canvas):
        """A stroke re-keys every stage that reads the brush, and only
        those: the temporal classification survives it."""
        before = {s.name: s.key for s in engine.plan(west_canvas, "red").stages}
        west_canvas.add(BrushStroke(np.array([[0.0, 0.0]]), 0.1, "red"))
        after = {s.name: s.key for s in engine.plan(west_canvas, "red").stages}
        assert before["agg_temporal"] == after["agg_temporal"]
        assert all(before[n] != after[n] for n in before if n != "agg_temporal")


class TestPlanner:
    def test_indexed_plan_shape(self, engine, west_canvas):
        """The pyramid is the engine's index: it plans aggregate-first."""
        plan = engine.plan(west_canvas, "red", window=TimeWindow.end(0.2))
        assert plan.strategy == "aggregate"
        assert plan.stage_names() == (*AGG_STAGES, "aggregate")
        assert plan.mask_stage == "drilldown"

    def test_brute_force_plan(self, study_dataset, west_canvas):
        engine = CoordinatedBrushingEngine(study_dataset, use_index=False)
        plan = engine.plan(west_canvas, "red")
        assert plan.strategy == "brute-force"
        assert plan.stage_names() == (
            "temporal_mask", "brush_hit", "combine", "aggregate",
        )
        assert plan.mask_stage == "combine"

    def test_empty_brush_plan(self, engine):
        plan = engine.plan(BrushCanvas(), "red")
        assert plan.strategy == "empty-brush"
        assert "agg_spatial" not in plan

    def test_strategy_follows_the_pyramid(self, west_canvas, study_dataset):
        """Three strategies, decided by the stamps and the pyramid alone."""
        planner = QueryPlanner()
        spec = _spec(west_canvas, study_dataset)
        empty = _spec(BrushCanvas(), study_dataset)
        assert planner.plan(spec, pyramid_token=("pyr",)).strategy == "aggregate"
        assert planner.plan(spec).strategy == "brute-force"
        assert planner.plan(empty, pyramid_token=("pyr",)).strategy == "empty-brush"
        assert planner.plan(empty).strategy == "empty-brush"

    def test_group_support_needs_assignment(self, engine, west_canvas, study_dataset, viewport):
        grid = preset("2").build(viewport)
        groups = TrajectoryGroups.fig3_scheme(grid)
        asg = assign_groups_to_cells(study_dataset, grid, groups)
        with_groups = engine.plan(west_canvas, "red", assignment=asg)
        without = engine.plan(west_canvas, "red")
        assert "group_support" in with_groups
        assert "group_support" not in without

    def test_window_change_keys(self, engine, west_canvas):
        a = engine.plan(west_canvas, "red", window=TimeWindow.end(0.2))
        b = engine.plan(west_canvas, "red", window=TimeWindow.end(0.3))
        key = {s.name: s.key for s in a.stages}
        key2 = {s.name: s.key for s in b.stages}
        # window-dependent stages re-key; spatial stages do not
        for name in ("agg_temporal", "classify", "drilldown", "aggregate"):
            assert key[name] != key2[name]
        assert key["agg_spatial"] == key2["agg_spatial"]
        assert key["agg_brush"] == key2["agg_brush"]

    def test_dag_validation(self):
        from repro.core.plan.planner import PlannedStage, QueryPlan

        spec_less_stages = (
            PlannedStage("combine", None, deps=("temporal_mask",)),
        )
        with pytest.raises(ValueError, match="depends on"):
            QueryPlan(spec=None, stages=spec_less_stages, strategy="x", plan_s=0.0)


class TestIncrementalExecution:
    def test_cold_query_runs_all_stages(self, engine, west_canvas):
        res = engine.query(west_canvas, "red", window=TimeWindow.end(0.2))
        assert res.trace is not None
        assert res.trace.cache_hits == 0
        assert res.trace.executed_stages() == [*AGG_STAGES, "aggregate"]

    def test_slider_only_requery_is_incremental(self, engine, west_canvas):
        """Acceptance: same canvas/color, new window → only the
        temporal stages and what depends on them execute."""
        engine.query(west_canvas, "red", window=TimeWindow.end(0.2))
        res = engine.query(west_canvas, "red", window=TimeWindow.end(0.25))
        assert res.trace.executed_stages() == [
            "agg_temporal", "classify", "drilldown", "aggregate",
        ]
        assert res.trace["agg_spatial"].cache_hit
        assert res.trace["agg_brush"].cache_hit

    def test_identical_requery_is_fully_cached(self, engine, west_canvas):
        w = TimeWindow.end(0.2)
        engine.query(west_canvas, "red", window=w)
        res = engine.query(west_canvas, "red", window=w)
        assert res.trace.executed_stages() == []
        assert res.trace.cache_misses == 0

    def test_color_only_change_reuses_temporal_mask(self, engine, west_canvas):
        w = TimeWindow.end(0.2)
        west_canvas.add(BrushStroke(np.array([[0.0, 0.0]]), 0.1, "green"))
        engine.query(west_canvas, "red", window=w)
        res = engine.query(west_canvas, "green", window=w)
        assert res.trace["agg_temporal"].cache_hit
        assert not res.trace["agg_brush"].cache_hit

    def test_warm_result_equals_cold(self, study_dataset, west_canvas):
        cold_engine = CoordinatedBrushingEngine(study_dataset)
        warm_engine = CoordinatedBrushingEngine(study_dataset)
        w1, w2 = TimeWindow.end(0.2), TimeWindow.end(0.3)
        warm_engine.query(west_canvas, "red", window=w1)  # prime spatial stages
        warm = warm_engine.query(west_canvas, "red", window=w2)
        cold = cold_engine.query(west_canvas, "red", window=w2)
        np.testing.assert_array_equal(warm.segment_mask, cold.segment_mask)
        np.testing.assert_array_equal(warm.traj_mask, cold.traj_mask)
        np.testing.assert_allclose(warm.traj_highlight_time, cold.traj_highlight_time)

    def test_query_all_colors_shares_temporal_mask(self, engine, arena):
        """Regression: N colors must cost exactly one temporal stage
        execution (the monolith recomputed it per color)."""
        r = arena.radius
        canvas = BrushCanvas()
        canvas.add(BrushStroke(np.array([[0.0, 0.0]]), 0.1 * r, "green"))
        canvas.add(BrushStroke(np.array([[-0.45 * r, 0.0]]), 0.05 * r, "red"))
        canvas.add(BrushStroke(np.array([[0.3 * r, 0.2 * r]]), 0.05 * r, "blue"))
        results = engine.query_all_colors(canvas, window=TimeWindow.end(0.4))
        assert len(results) == 3
        temporal_runs = [
            not res.trace["agg_temporal"].cache_hit for res in results.values()
        ]
        assert sum(temporal_runs) == 1


class TestCacheInvalidationEdges:
    def test_new_stroke_bumps_canvas_epoch_and_invalidates(self, engine, west_canvas):
        w = TimeWindow.end(0.2)
        engine.query(west_canvas, "red", window=w)
        west_canvas.add(BrushStroke(np.array([[0.4, 0.4]]), 0.05, "red"))
        res = engine.query(west_canvas, "red", window=w)
        # spatial stages re-run (epoch moved), temporal stage reused
        assert not res.trace["agg_brush"].cache_hit
        assert not res.trace["agg_spatial"].cache_hit
        assert res.trace["agg_temporal"].cache_hit

    def test_skip_loaded_dataset_has_epoch(self, tmp_path):
        from repro.trajectory import io

        body = (
            "0,0.0,0.0,0.0\n0,1.0,0.0,1.0\n"
            "1,0.0,bad,0.0\n1,1.0,0.0,1.0\n"     # quarantined in skip mode
            "2,0.0,0.0,0.0\n2,1.0,0.0,1.0\n"
        )
        path = tmp_path / "d.csv"
        path.write_text("traj_id,x,y,t\n" + body)
        loaded = io.load_csv(path, on_error="skip")
        assert loaded.epoch == len(loaded) > 0

    def test_dataset_append_bumps_epoch_and_invalidates(self, tmp_path):
        from repro.trajectory import io
        from repro.trajectory.model import Trajectory, TrajectoryMeta

        body = "0,0.0,0.0,0.0\n0,1.0,0.0,1.0\n1,0.0,bad,0.0\n1,1.0,0.0,1.0\n"
        path = tmp_path / "d.csv"
        path.write_text("traj_id,x,y,t\n" + body)
        ds = io.load_csv(path, on_error="skip")
        canvas = BrushCanvas()
        canvas.add(BrushStroke(np.array([[0.5, 0.0]]), 0.6, "red"))
        spec_before = QuerySpec.capture(ds, canvas, "red", TimeWindow.all(), None)
        t = np.linspace(0.0, 5.0, 6)
        ds.append(
            Trajectory(
                np.stack([np.linspace(0, 1, 6), np.zeros(6)], axis=1),
                t, TrajectoryMeta(), -1,
            )
        )
        spec_after = QuerySpec.capture(ds, canvas, "red", TimeWindow.all(), None)
        assert spec_after.dataset_epoch > spec_before.dataset_epoch
        planner = QueryPlanner(pyramid_token=("pyr",))
        keys_before = {s.name: s.key for s in planner.plan(spec_before).stages}
        keys_after = {s.name: s.key for s in planner.plan(spec_after).stages}
        assert all(keys_before[n] != keys_after[n] for n in keys_before)

    def test_degraded_result_never_cached(self, unbuilt_engine, west_canvas):
        engine = unbuilt_engine
        w = TimeWindow.end(0.2)
        first = engine.query(west_canvas, "red", window=w)
        assert first.degraded
        assert {k[0] for k in engine.cache.keys()} == {"temporal_mask"}
        # the re-query must recompute (and degrade again), not serve a
        # poisoned entry
        second = engine.query(west_canvas, "red", window=w)
        assert second.degraded
        assert not second.trace["brush_hit"].cache_hit
        # temporal mask is pyramid-independent: cached despite degradation
        assert second.trace["temporal_mask"].cache_hit

    def test_index_build_failure_not_cached(self, unbuilt_engine, west_canvas):
        engine = unbuilt_engine
        res = engine.query(west_canvas, "red")
        assert res.degraded
        assert res.trace.strategy == "brute-force"
        assert res.trace["brush_hit"].degraded
        assert not any(k[0] == "brush_hit" for k in engine.cache.keys())


class TestTraceAndResult:
    def test_elapsed_covers_plan_and_execute(self, engine, west_canvas):
        res = engine.query(west_canvas, "red", window=TimeWindow.end(0.2))
        trace = res.trace
        assert res.elapsed_s == pytest.approx(trace.total_s)
        assert trace.total_s == pytest.approx(trace.plan_s + trace.execute_s)
        # wall time bounds the per-stage sum from above
        assert trace.total_s >= trace.stage_total_s > 0.0

    def test_trace_cardinalities(self, engine, west_canvas, study_dataset):
        brute = CoordinatedBrushingEngine(study_dataset, use_index=False)
        res = brute.query(west_canvas, "red", window=TimeWindow.end(0.2))
        n_seg = study_dataset.packed().n_segments
        tm = res.trace["temporal_mask"]
        assert tm.n_in == n_seg
        assert tm.n_out == int(
            TimeWindow.end(0.2).segment_mask(study_dataset.packed(), study_dataset).sum()
        )
        agg = res.trace["aggregate"]
        assert agg.n_out == int(res.traj_mask.sum())
        fast = engine.query(west_canvas, "red", window=TimeWindow.end(0.2))
        assert fast.trace["agg_temporal"].n_out == engine.pyramid.n_nodes
        assert fast.trace["drilldown"].n_in == n_seg
        assert fast.trace["drilldown"].n_out == int(res.segment_mask.sum())

    def test_repr_summarizes(self, engine, west_canvas):
        res = engine.query(west_canvas, "red", window=TimeWindow.end(0.2))
        text = repr(res)
        assert "QueryResult[red]" in text
        assert f"{res.n_highlighted}/{res.n_displayed}" in text
        assert "stages=6" in text
        assert "degraded" not in text

    def test_repr_shows_degradation(self, unbuilt_engine, west_canvas):
        res = unbuilt_engine.query(west_canvas, "red")
        assert "degraded[index-build-failure]" in repr(res)

    def test_trace_describe_is_one_line(self, engine, west_canvas):
        res = engine.query(west_canvas, "red")
        text = res.trace.describe()
        assert "\n" not in text
        assert "agg_temporal" in text and "aggregate" in text

    def test_trace_getitem_unknown_stage(self):
        trace = QueryTrace()
        trace.record(StageRecord("temporal_mask", 0.0, 1, 1))
        with pytest.raises(KeyError):
            trace["nope"]

    def test_group_support_stage_runs_and_caches(self, engine, west_canvas, study_dataset, viewport):
        grid = preset("2").build(viewport)
        groups = TrajectoryGroups.fig3_scheme(grid)
        asg = assign_groups_to_cells(study_dataset, grid, groups)
        w = TimeWindow.end(0.15)
        first = engine.query(west_canvas, "red", window=w, assignment=asg)
        assert not first.trace["group_support"].cache_hit
        assert set(first.group_support) == {"on", "west", "east", "north", "south"}
        again = engine.query(west_canvas, "red", window=w, assignment=asg)
        assert again.trace["group_support"].cache_hit
        assert again.group_support == first.group_support


class TestSessionTraceJournal:
    def test_query_event_carries_trace(self, study_dataset, viewport, arena, tmp_path):
        from repro.core.session import ExplorationSession, SessionJournal

        journal = tmp_path / "session.jsonl"
        session = ExplorationSession(
            study_dataset, viewport, journal_path=journal
        )
        r = arena.radius
        session.brush(
            stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red")
        )
        session.run_query("red")
        session.set_time_window(TimeWindow.end(0.3))
        session.run_query("red")
        session.close()

        records = SessionJournal.read(journal)
        queries = [rec for rec in records if rec["kind"] == "query"]
        assert len(queries) == 2
        # a session query always carries a layout assignment, so the
        # plan ends with the (empty-scheme) group_support stage
        assert queries[0]["detail"]["stages_executed"] == [
            *AGG_STAGES, "aggregate", "group_support",
        ]
        # the slider-only second query is incremental in the journal too
        assert queries[1]["detail"]["stages_executed"] == [
            "agg_temporal", "classify", "drilldown", "aggregate", "group_support",
        ]
        assert "trace" in queries[0]["detail"]


class TestDeadline:
    """Per-query wall-clock budgets (PR 6): boundary-only enforcement,
    degraded partials, and strict cache hygiene around expiry."""

    def _deadline(self, budget_s, *, expire_after_checks):
        """A Deadline on a fake clock that expires after N ``check``s."""
        from repro.core.plan import Deadline

        ticks = {"n": 0}

        def clock():
            ticks["n"] += 1
            return float(ticks["n"] > expire_after_checks) * (budget_s + 1.0)

        return Deadline(budget_s=budget_s, expires_at=budget_s, clock=clock)

    def test_after_rejects_nonpositive_budget(self):
        from repro.core.plan import Deadline

        with pytest.raises(ValueError, match="positive"):
            Deadline.after(0.0)

    def test_check_raises_with_stage_and_overshoot(self):
        from repro.core.plan import Deadline, DeadlineExceeded

        dl = self._deadline(0.5, expire_after_checks=0)
        assert dl.expired
        with pytest.raises(DeadlineExceeded) as exc:
            dl.check("brush_hit")
        assert exc.value.stage == "brush_hit"
        assert exc.value.budget_s == 0.5

    def test_expired_query_degrades_to_empty_partial(self, engine, west_canvas):
        res = engine.query(west_canvas, "red", deadline_s=1e-9)
        assert res.degraded
        assert [e.kind for e in res.degradation.events] == ["deadline-exceeded"]
        # structurally complete, conservatively empty
        assert len(res.traj_mask) == len(engine.dataset)
        assert not res.traj_mask.any()
        assert not res.segment_mask.any()
        # every synthesized stage is marked degraded in the trace
        assert all(s.degraded for s in res.trace.stages)
        # and nothing poisoned the shared cache
        assert engine.cache.keys() == []

    def test_requery_after_expiry_computes_fresh_and_correct(
        self, engine, west_canvas, study_dataset
    ):
        degraded = engine.query(west_canvas, "red", deadline_s=1e-9)
        assert degraded.degraded
        clean = engine.query(west_canvas, "red")
        assert not clean.degraded
        assert clean.trace.cache_hits == 0  # nothing served from the expiry run
        ref = CoordinatedBrushingEngine(study_dataset, use_index=False).query(
            west_canvas, "red"
        )
        np.testing.assert_array_equal(clean.traj_mask, ref.traj_mask)

    def test_mid_query_expiry_keeps_completed_stages_cached(self, engine, west_canvas):
        """Expiry between stages: stages that finished before the budget
        ran out are genuine (cached); everything after is a tainted
        partial that never enters the cache."""
        from repro.core.plan.trace import QueryTrace
        from repro.core.temporal import TimeWindow as TW
        from repro.resilience.health import DegradationReport

        spec = _spec(west_canvas, engine.dataset)
        plan = engine.planner.plan(spec, pyramid_token=engine._pyramid_token())
        # first boundary check passes, second one expires
        deadline = self._deadline(1.0, expire_after_checks=1)
        trace = QueryTrace(strategy=plan.strategy)
        report = DegradationReport()
        outputs = engine.executor.run(
            plan, west_canvas, TW.all(), None, trace, report, deadline=deadline
        )
        assert set(outputs) == {s.name for s in plan.stages}
        assert [e.kind for e in report.events] == ["deadline-exceeded"]
        cached_stages = {k[0] for k in engine.cache.keys()}
        assert cached_stages == {"agg_temporal"}  # the one completed stage
        degraded_stages = [s.stage for s in trace.stages if s.degraded]
        assert degraded_stages == [*AGG_STAGES[1:], "aggregate"]

    def test_deadline_excluded_from_cache_identity(self, engine, west_canvas):
        """A budget changes *when* a query may be cut short, never *what*
        it computes — so a generously-budgeted re-query of a warm
        (stroke, window) must be served entirely from cache."""
        w = TimeWindow.end(0.3)
        cold = engine.query(west_canvas, "red", window=w)
        warm = engine.query(west_canvas, "red", window=w, deadline_s=60.0)
        assert not warm.degraded
        assert warm.trace.cache_misses == 0
        assert warm.trace.cache_hits > 0
        np.testing.assert_array_equal(warm.traj_mask, cold.traj_mask)

    def test_degraded_partial_not_cached_across_epoch_bump(self, tmp_path):
        """Satellite 3: a deadline-degraded query right before an epoch
        bump must not seed the cache that the post-append epoch sees."""
        from repro.synth import AntStudyConfig, generate_study_dataset
        from repro.trajectory.model import Trajectory, TrajectoryMeta

        ds = generate_study_dataset(AntStudyConfig(n_trajectories=14, seed=5))
        engine = CoordinatedBrushingEngine(ds)
        canvas = BrushCanvas()
        canvas.add(stroke_from_rect((-0.4, -0.3), (-0.1, 0.3), 0.1, "red"))
        assert engine.query(canvas, "red", deadline_s=1e-9).degraded
        assert engine.cache.keys() == []

        t = np.linspace(0.0, 5.0, 6)
        pos = np.stack([np.linspace(-0.3, 0.0, 6), np.zeros(6)], axis=1)
        ds.append(Trajectory(pos, t, TrajectoryMeta(), traj_id=-1))
        # the successor engine shares the cache, exactly as a rollover
        # hands the staged epoch's engine the service's live cache
        successor = CoordinatedBrushingEngine(ds, cache=engine.cache)
        res = successor.query(canvas, "red")
        assert not res.degraded
        assert res.trace.cache_hits == 0
        assert len(res.traj_mask) == len(ds)
