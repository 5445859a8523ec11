"""The coordinated-brushing query engine.

One engine instance binds a dataset (through its packed segment view)
and optionally its :class:`~repro.core.aggregate.SummaryPyramid`, the
one spatial index; :meth:`query` evaluates a brush canvas color under a
time window across *every* trajectory at once.

The engine is a thin façade over the :mod:`repro.core.plan` machinery:
a :class:`QueryPlanner` builds a DAG of named stages and a
:class:`QueryExecutor` runs them through a keyed :class:`StageCache`.
An engine holding a pyramid (the default, ``use_index=True``) plans the
aggregate-first route: supernodes are tri-stated from summary
statistics (``agg_temporal → agg_spatial → agg_brush → classify``) and
only inconclusive cells drill down to the exact per-segment kernels
(``drilldown``), so cold cost is proportional to the brushed region
rather than the dataset.  An engine without one (``use_index=False``,
or a failed pyramid build) plans brute force:

1. ``temporal_mask`` — which segments fall in the window (vectorized
   over the packed arrays, fractional windows resolved per owner);
2. ``brush_hit`` — exact capsule hit-testing of every segment against
   the stamps;
3. ``combine`` — spatial ∧ temporal segment mask.

Both routes end in ``aggregate`` — per-trajectory any-highlight flags
and highlighted time via ``np.bitwise_or.reduceat`` /
``np.add.reduceat`` over the packed ownership ranges — and, with a
layout, ``group_support``.  They are bit-identical; brute force is the
oracle the aggregate route is pinned to.

A slider-only change re-executes just the temporal stages and what
depends on them; a color-only change reuses the temporal stage
outright; :meth:`query_all_colors` computes it once for N colors.
Every query carries a :class:`QueryTrace` (per-stage wall time,
cardinality, cache hit/miss) on its result.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.core.aggregate.pyramid import SummaryPyramid
from repro.core.canvas import BrushCanvas
from repro.core.plan.cache import StageCache
from repro.core.plan.executor import Deadline, QueryExecutor
from repro.core.plan.planner import QueryPlan, QueryPlanner
from repro.core.plan.spec import QuerySpec
from repro.core.plan.trace import QueryTrace
from repro.core.result import QueryResult
from repro.core.temporal import TimeWindow
from repro.layout.cells import CellAssignment
from repro.resilience.health import DegradationReport
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["CoordinatedBrushingEngine"]


class CoordinatedBrushingEngine:
    """Evaluates visual queries over one dataset.

    Parameters
    ----------
    dataset:
        The trajectory collection to query.
    use_index:
        Build a :class:`SummaryPyramid` and route queries through the
        aggregate-first plan.  On by default; ``False`` gives the
        brute-force oracle.  The pyramid is an acceleration: a failed
        build leaves the engine on brute force, with every query
        recording an ``index-build-failure`` event, instead of failing
        construction.
    cache_capacity:
        Stage-cache size (number of retained stage outputs).
    cache:
        An existing :class:`StageCache` to adopt instead of building a
        private one.  The rollover path (:mod:`repro.store.ingest`)
        hands each successor-epoch engine the *same* cache: keys embed
        the dataset epoch and store token, so old-epoch entries are
        unreachable by new-epoch queries (and age out via LRU) while
        still serving any session pinned to the old epoch.
    pyramid:
        A prebuilt :class:`SummaryPyramid` over this dataset's packed
        view to adopt instead of building one — the shared-memory
        attach path passes the pyramid rebuilt from shared arena tables
        here.

    Thread safety: the dataset, packed view, and pyramid are immutable
    after construction and queries keep all per-call state on the
    stack, so concurrent ``query`` calls are safe — the stage cache's
    per-shard locks are the only critical sections.  This is the
    multi-tenant service's lock-free read path.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        *,
        use_index: bool = True,
        cache_capacity: int = 128,
        cache: StageCache | None = None,
        pyramid: SummaryPyramid | None = None,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("cannot build an engine over an empty dataset")
        self.dataset = dataset
        self.packed = dataset.packed()
        self.pyramid: SummaryPyramid | None = None
        self._pyramid_error: str | None = None
        if pyramid is not None:
            if pyramid.packed is not self.packed:
                raise ValueError(
                    "prebuilt pyramid was not built over this dataset's "
                    "packed view"
                )
            self.pyramid = pyramid
        elif use_index:
            try:
                self.pyramid = SummaryPyramid.build(self.packed, dataset)
            except Exception as exc:
                self._pyramid_error = repr(exc)
        self.cache = cache if cache is not None else StageCache(cache_capacity)
        self.planner = QueryPlanner()
        self.executor = QueryExecutor(
            dataset, self.packed, self.cache,
            pyramid=self.pyramid,
            build_error=self._pyramid_error,
        )

    # Planning -----------------------------------------------------------
    def _pyramid_token(self) -> tuple | None:
        if self.pyramid is None:
            return None
        return self.pyramid.cache_token

    def plan(
        self,
        canvas: BrushCanvas,
        color: str = "red",
        *,
        window: TimeWindow | None = None,
        assignment: CellAssignment | None = None,
    ) -> QueryPlan:
        """Build (without executing) the stage plan for a query —
        introspection for tests, tools, and benchmarks."""
        window = window or TimeWindow.all()
        spec = QuerySpec.capture(self.dataset, canvas, color, window, assignment)
        return self.planner.plan(spec, pyramid_token=self._pyramid_token())

    # Query ------------------------------------------------------------------
    def query(
        self,
        canvas: BrushCanvas,
        color: str = "red",
        *,
        window: TimeWindow | None = None,
        assignment: CellAssignment | None = None,
        deadline_s: float | None = None,
    ) -> QueryResult:
        """Run one coordinated-brushing query.

        Parameters
        ----------
        canvas:
            The brush canvas; only strokes of ``color`` participate.
        color:
            Which brush color to evaluate.
        window:
            Optional temporal filter (default: entire experiment).
        assignment:
            Optional layout assignment restricting the *displayed* set
            and providing group structure.  The segment masks still
            cover the whole dataset (highlighting is a property of the
            data); support counts use only displayed trajectories, as
            on the real wall.
        deadline_s:
            Wall-clock budget for this query (``None`` = unbounded).
            The budget starts now — planning counts against it — and is
            enforced at stage boundaries: on expiry the remaining
            stages are synthesized as empty partials and the result
            comes back ``degraded`` (never cached) instead of raising.
        """
        t_plan = time.perf_counter()
        deadline = Deadline.after(deadline_s) if deadline_s is not None else None
        window = window or TimeWindow.all()
        spec = QuerySpec.capture(
            self.dataset, canvas, color, window, assignment,
            deadline_s=deadline_s,
        )
        plan = self.planner.plan(spec, pyramid_token=self._pyramid_token())
        trace = QueryTrace(strategy=plan.strategy)
        trace.plan_s = time.perf_counter() - t_plan

        t_exec = time.perf_counter()
        degradation = DegradationReport()
        outputs = self.executor.run(
            plan, canvas, window, assignment, trace, degradation,
            deadline=deadline,
        )
        traj_mask, traj_time = outputs["aggregate"]

        n_traj = len(self.dataset)
        if assignment is None:
            displayed = np.ones(n_traj, dtype=bool)
        else:
            displayed = np.zeros(n_traj, dtype=bool)
            shown = assignment.displayed_indices()
            displayed[shown[shown < n_traj]] = True

        # execute_s also covers result assembly so elapsed_s == total_s
        # keeps "plan + execute" an exhaustive account of the query
        trace.execute_s = time.perf_counter() - t_exec
        result = QueryResult(
            color=color,
            segment_mask=outputs[plan.mask_stage],
            traj_mask=traj_mask,
            traj_highlight_time=traj_time,
            displayed=displayed,
            group_support=outputs.get("group_support") or {},
            elapsed_s=trace.total_s,
            degraded=degradation.degraded,
            degradation=degradation if degradation.degraded else None,
            trace=trace,
        )
        obs.counter_add("query.count", 1, strategy=plan.strategy)
        obs.observe("query.seconds", trace.total_s, strategy=plan.strategy)
        if degradation.degraded:
            obs.counter_add("query.degraded", 1, strategy=plan.strategy)
        return result

    def query_all_colors(
        self,
        canvas: BrushCanvas,
        *,
        window: TimeWindow | None = None,
        assignment: CellAssignment | None = None,
        deadline_s: float | None = None,
    ) -> dict[str, QueryResult]:
        """Evaluate every color on the canvas (multi-query sessions).

        The temporal mask is computed once and shared across all N
        colors through the stage cache (it depends on the window and
        dataset only) — per-trace, at most one ``temporal_mask``
        execution appears as a cache miss.  ``deadline_s`` is a
        *per-color* budget (each color is one query).
        """
        return {
            color: self.query(
                canvas, color, window=window, assignment=assignment,
                deadline_s=deadline_s,
            )
            for color in canvas.colors()
        }

    # Cache management ---------------------------------------------------
    def cache_stats(self) -> dict[str, float]:
        """Stage-cache counters: hits, misses, evictions, hit_rate."""
        s = self.cache.stats
        return {
            "entries": len(self.cache),
            "hits": s.hits,
            "misses": s.misses,
            "evictions": s.evictions,
            "invalidations": s.invalidations,
            "hit_rate": s.hit_rate,
        }

    def invalidate_cache(self) -> None:
        """Drop every cached stage output (epoch keys make this a
        hygiene operation, never a correctness requirement)."""
        self.cache.clear()
