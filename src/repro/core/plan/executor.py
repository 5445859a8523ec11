"""The query executor.

Runs a :class:`~repro.core.plan.planner.QueryPlan` stage by stage
through the :class:`~repro.core.plan.cache.StageCache`, recording one
:class:`~repro.core.plan.trace.StageRecord` per stage.  The executor
owns the stage *implementations* (the vectorized kernels the old
monolithic engine ran inline); the planner owns the routing and the
cache keys.

Degradation ladder: the summary pyramid is an acceleration, so a
failed pyramid build leaves the engine on the exact brute-force route.
Every such query records an ``index-build-failure`` event and
**taints** its ``brush_hit`` stage — tainted outputs (and everything
computed from them) are never inserted into the cache, so a degraded
query can never poison the warm path.

Observability: every stage runs inside a :func:`repro.obs.stage_span`,
which both back-fills the :class:`QueryTrace` (the per-result record
this module always produced) and — when a live registry is installed —
emits per-stage latency histograms and cache hit/miss/taint counters
into the process telemetry plane.  Emission is guarded inside the span;
nothing here can raise because of telemetry.

Deadlines: a query may carry a :class:`Deadline` (wall-clock budget
set at query entry).  The budget is checked **only between stages** —
never inside a stage kernel, so every stage output is either complete
or absent (reprolint rule RL008 pins this).  Once the budget is
exhausted the executor stops computing: every remaining stage is
*synthesized* as an empty partial (all-false masks, zero aggregates),
recorded as degraded via :class:`DeadlineExceeded` →
``DegradationReport``, and tainted so nothing partial can ever enter
the stage cache.  Stages that finished before expiry remain cached —
their outputs are exact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.core.aggregate.kernels import (
    IN as AGG_IN,
    MAYBE as AGG_MAYBE,
    OUT as AGG_OUT,
    brush_hit_cells,
    classify_spatial,
    classify_temporal,
    refine_temporal_rows,
)
from repro.core.aggregate.pyramid import SummaryPyramid
from repro.core.canvas import BrushCanvas
from repro.core.plan.cache import StageCache
from repro.core.plan.planner import QueryPlan
from repro.core.plan.trace import QueryTrace
from repro.core.result import GroupSupport
from repro.core.temporal import TimeWindow
from repro.layout.cells import CellAssignment
from repro.resilience.health import DegradationReport
from repro.trajectory.dataset import PackedSegments, TrajectoryDataset

__all__ = ["Deadline", "DeadlineExceeded", "QueryExecutor"]


class DeadlineExceeded(RuntimeError):
    """A query's wall-clock budget ran out at a stage boundary.

    Raised by :meth:`Deadline.check`; the executor absorbs it into the
    degradation ladder (partial result, tainted stages) rather than
    letting it propagate — queries degrade, they do not fail.
    """

    def __init__(self, budget_s: float, overshoot_s: float, stage: str) -> None:
        super().__init__(
            f"query deadline of {budget_s:.3f}s exceeded by "
            f"{overshoot_s:.3f}s before stage {stage!r}"
        )
        self.budget_s = budget_s
        self.overshoot_s = overshoot_s
        self.stage = stage


@dataclass(frozen=True)
class Deadline:
    """A per-query wall-clock budget, checked at stage boundaries only.

    Attributes
    ----------
    budget_s:
        The total budget granted at query entry (planning time counts
        against it).
    expires_at:
        Absolute expiry instant on ``clock``'s timeline.
    clock:
        Injectable monotonic clock (tests freeze it; production uses
        ``time.perf_counter``).
    """

    budget_s: float
    expires_at: float
    clock: Callable[[], float] = time.perf_counter

    @classmethod
    def after(
        cls,
        budget_s: float,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "Deadline":
        """A deadline expiring ``budget_s`` seconds from now."""
        if budget_s <= 0:
            raise ValueError("deadline budget must be positive")
        return cls(budget_s=budget_s, expires_at=clock() + budget_s, clock=clock)

    def remaining_s(self) -> float:
        """Seconds left on the budget (negative once expired)."""
        return self.expires_at - self.clock()

    @property
    def expired(self) -> bool:
        """True once the budget is exhausted."""
        return self.clock() >= self.expires_at

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is exhausted.

        Called by the executor between stages — the one legal check
        site (RL008): a stage either runs to completion or not at all.
        """
        over = -self.remaining_s()
        if over >= 0:
            raise DeadlineExceeded(self.budget_s, over, stage)


def _freeze(value: Any) -> Any:
    """Mark array outputs read-only before they enter the shared cache."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
    return value


class QueryExecutor:
    """Executes planned stages over one dataset's packed segments.

    Parameters
    ----------
    dataset, packed:
        The bound trajectory collection and its columnar segment view.
    cache:
        The :class:`StageCache` stage outputs flow through.
    pyramid:
        The summary pyramid backing aggregate-route plans, or ``None``
        (such plans are never produced without one).
    build_error:
        The recorded pyramid *build* failure, if construction left the
        engine on brute force (surfaces in every query's report).
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        packed: PackedSegments,
        cache: StageCache,
        *,
        pyramid: SummaryPyramid | None = None,
        build_error: str | None = None,
    ) -> None:
        self.dataset = dataset
        self.packed = packed
        self.cache = cache
        self.pyramid = pyramid
        self.build_error = build_error
        # per-trajectory segment-range bounds for reduceat aggregation
        self._starts = packed.offsets[:-1]
        self._has_segments = packed.offsets[1:] > packed.offsets[:-1]

    # Aggregation kernels ------------------------------------------------
    def _per_traj_any(self, segment_mask: np.ndarray) -> np.ndarray:
        """(T,) any-highlight flag via logical reduceat over owner ranges."""
        out = np.zeros(len(self.dataset), dtype=bool)
        if segment_mask.any():
            red = np.bitwise_or.reduceat(segment_mask, self._starts)
            # reduceat on an empty range returns the element at the start
            # index of the *next* range; mask those out
            out = red & self._has_segments
        return out

    def _per_traj_time(self, segment_mask: np.ndarray) -> np.ndarray:
        """(T,) highlighted seconds via add.reduceat of segment dts."""
        dt = (self.packed.t1 - self.packed.t0) * segment_mask
        red = np.add.reduceat(dt, self._starts)
        return np.where(self._has_segments, red, 0.0)

    # Execution ----------------------------------------------------------
    def run(
        self,
        plan: QueryPlan,
        canvas: BrushCanvas,
        window: TimeWindow,
        assignment: CellAssignment | None,
        trace: QueryTrace,
        degradation: DegradationReport,
        deadline: Deadline | None = None,
    ) -> dict[str, Any]:
        """Execute every planned stage; returns the stage-output map.

        Cache policy: a stage is served from the cache when its key is
        present; a freshly computed output is inserted only when the
        stage is untainted (neither it nor any dependency degraded).

        Deadline policy: the budget is checked once per stage boundary.
        On expiry the remaining stages are synthesized as empty
        partials — degraded, tainted, and never cached — so the caller
        still receives a structurally complete (if conservative) result
        within its budget.

        Concurrency: on the lock-free multi-tenant path, N threads run
        this method against one executor simultaneously; everything
        they touch is either immutable (dataset, packed view, pyramid)
        or thread-safe (the sharded stage cache, the per-call locals
        below).
        """
        t_run = time.perf_counter()
        outputs: dict[str, Any] = {}
        tainted: set[str] = set()
        expired = False
        for stage in plan.stages:
            if deadline is not None and not expired:
                try:
                    deadline.check(stage.name)
                except DeadlineExceeded as exc:
                    expired = True
                    degradation.record(
                        "deadline-exceeded",
                        scope="query",
                        action="degraded-partial",
                        detail=str(exc),
                    )
                    obs.counter_add(
                        "query.deadline_exceeded", 1, stage=stage.name
                    )
            if expired:
                with obs.stage_span(trace, stage.name) as sp:
                    value = self._partial_stage(stage.name, assignment)
                    outputs[stage.name] = value
                    tainted.add(stage.name)
                    sp.n_in = 0
                    sp.n_out = _cardinality(value)
                    sp.degraded = True
                    sp.detail = "deadline exceeded; synthesized partial"
                continue
            dep_tainted = any(d in tainted for d in stage.deps)
            if stage.key is not None:
                cached, found = self.cache.lookup(stage.key)
                if found:
                    with obs.stage_span(trace, stage.name) as sp:
                        outputs[stage.name] = cached
                        sp.cache_hit = True
                        sp.n_in = self._n_in(stage.name, outputs)
                        sp.n_out = _cardinality(cached)
                    continue
            with obs.stage_span(trace, stage.name) as sp:
                value, degraded, detail = self._execute_stage(
                    stage.name, plan, canvas, window, assignment, outputs,
                    degradation,
                )
                outputs[stage.name] = value
                if degraded or dep_tainted:
                    tainted.add(stage.name)
                elif stage.key is not None:
                    self.cache.put(stage.key, _freeze(value))
                sp.n_in = self._n_in(stage.name, outputs)
                sp.n_out = _cardinality(value)
                sp.degraded = degraded or dep_tainted
                sp.detail = detail
        trace.execute_s += time.perf_counter() - t_run
        return outputs

    def _n_in(self, name: str, outputs: dict[str, Any]) -> int:
        """Input cardinality feeding one stage."""
        if name in ("temporal_mask", "brush_hit", "combine"):
            return self.packed.n_segments
        if name in ("agg_temporal", "agg_spatial", "classify"):
            # supernode/cell cardinality — read off the stage's own output
            value = outputs.get(name)
            return len(value) if value is not None else 0
        if name in ("agg_brush", "drilldown"):
            return self.packed.n_segments
        if name == "aggregate":
            mask = outputs.get("drilldown")
            if mask is None:
                mask = outputs.get("combine")
            return int(mask.sum()) if mask is not None else 0
        if name == "group_support":
            agg = outputs.get("aggregate")
            return int(agg[0].sum()) if agg is not None else 0
        return 0

    def _execute_stage(
        self,
        name: str,
        plan: QueryPlan,
        canvas: BrushCanvas,
        window: TimeWindow,
        assignment: CellAssignment | None,
        outputs: dict[str, Any],
        degradation: DegradationReport,
    ) -> tuple[Any, bool, str]:
        """Dispatch one stage; returns (output, degraded, detail)."""
        color = plan.spec.color
        pyramid = self.pyramid
        if name == "temporal_mask":
            return window.segment_mask(self.packed, self.dataset), False, ""

        if name == "agg_temporal":
            assert pyramid is not None
            return classify_temporal(pyramid, window), False, ""

        if name == "agg_spatial":
            assert pyramid is not None
            centers, radii = canvas.stamps_of(color)
            return classify_spatial(pyramid, centers, radii), False, ""

        if name == "agg_brush":
            # exact full-length brush mask from the tri-state cells:
            # IN cells are hit wholesale, OUT cells stay False, and only
            # the inconclusive cells' rows reach the capsule kernel.
            # Window-independent, so slider sweeps reuse it from cache.
            assert pyramid is not None
            scls = outputs["agg_spatial"]
            mask = np.zeros(self.packed.n_segments, dtype=bool)
            mask[pyramid.rows_in_cells(np.flatnonzero(scls == AGG_IN))] = True
            centers, radii = canvas.stamps_of(color)
            maybe_rows, hits = brush_hit_cells(
                pyramid, centers, radii, self.packed,
                np.flatnonzero(scls == AGG_MAYBE),
            )
            mask[maybe_rows] = hits
            obs.counter_add(
                "service.aggregate.drilldown_segments", len(maybe_rows)
            )
            return mask, False, f"refined {len(maybe_rows)} segments"

        if name == "classify":
            assert pyramid is not None
            tcls = outputs["agg_temporal"]
            scls = outputs["agg_spatial"]
            ncls = np.minimum(np.repeat(scls, pyramid.n_tbuckets), tcls)
            occupied = pyramid.node_counts > 0
            for code, label in (
                (AGG_IN, "all_in"),
                (AGG_MAYBE, "inconclusive"),
                (AGG_OUT, "all_out"),
            ):
                obs.counter_add(
                    "service.aggregate.supernodes",
                    int(((ncls == code) & occupied).sum()),
                    **{"class": label},
                )
            return ncls, False, ""

        if name == "drilldown":
            # combine brush × temporal: the brush mask is already exact;
            # rows in temporally-inconclusive nodes get the exact window
            # predicate, everything else resolves from the tri-state.
            assert pyramid is not None
            tcls_rows = outputs["agg_temporal"][pyramid.node_of]
            mask = outputs["agg_brush"] & (tcls_rows != AGG_OUT)
            need = np.flatnonzero(mask & (tcls_rows == AGG_MAYBE))
            if len(need):
                mask[need] = refine_temporal_rows(
                    pyramid, self.packed, window, need
                )
            return mask, False, f"refined {len(need)} segments"

        if name == "brush_hit":
            if plan.strategy == "empty-brush":
                return np.zeros(self.packed.n_segments, dtype=bool), False, "no stamps"
            mask = canvas.packed_hit_mask(color, self.packed)
            if self.build_error is not None:
                # the engine-level pyramid build failure surfaces on
                # every query that would have used the pyramid
                degradation.record(
                    "index-build-failure",
                    scope="index",
                    action="degraded-brute-force",
                    detail=self.build_error,
                )
                return mask, True, "pyramid build failed; brute-force"
            return mask, False, plan.strategy

        if name == "combine":
            return outputs["brush_hit"] & outputs["temporal_mask"], False, ""

        if name == "aggregate":
            segment_mask = outputs[plan.mask_stage]
            return (
                self._per_traj_any(segment_mask),
                self._per_traj_time(segment_mask),
            ), False, ""

        if name == "group_support":
            traj_mask = outputs["aggregate"][0]
            support: dict[str, GroupSupport] = {}
            if assignment is not None and assignment.groups is not None:
                for gi, spec in enumerate(assignment.groups):
                    cells = np.flatnonzero(assignment.group_of_cell == gi)
                    trajs = assignment.cell_to_traj[cells]
                    trajs = trajs[trajs >= 0]
                    n_disp = len(trajs)
                    n_hi = int(traj_mask[trajs].sum())
                    support[spec.name] = GroupSupport(spec.name, n_disp, n_hi)
            return support, False, ""

        raise ValueError(f"unknown stage {name!r}")

    def _partial_stage(
        self, name: str, assignment: CellAssignment | None
    ) -> Any:
        """Synthesize the conservative empty output for one skipped stage.

        Used once the query's deadline expired: nothing is highlighted
        (all-false masks, zero aggregates, zero group support, all-OUT
        classifications), so a partial result under-reports rather than
        inventing hits.  The synthesized values are always tainted —
        they must never reach the stage cache.
        """
        pyramid = self.pyramid
        if name in ("temporal_mask", "brush_hit", "combine",
                    "agg_brush", "drilldown"):
            return np.zeros(self.packed.n_segments, dtype=bool)
        if name in ("agg_temporal", "classify"):
            n = pyramid.n_nodes if pyramid is not None else 0
            return np.zeros(n, dtype=np.int8)
        if name == "agg_spatial":
            n = pyramid.n_cells if pyramid is not None else 0
            return np.zeros(n, dtype=np.int8)
        if name == "aggregate":
            n_traj = len(self.dataset)
            return (
                np.zeros(n_traj, dtype=bool),
                np.zeros(n_traj, dtype=np.float64),
            )
        if name == "group_support":
            support: dict[str, GroupSupport] = {}
            if assignment is not None and assignment.groups is not None:
                for gi, spec in enumerate(assignment.groups):
                    cells = np.flatnonzero(assignment.group_of_cell == gi)
                    trajs = assignment.cell_to_traj[cells]
                    support[spec.name] = GroupSupport(
                        spec.name, int((trajs >= 0).sum()), 0
                    )
            return support
        raise ValueError(f"unknown stage {name!r}")


def _cardinality(value: Any) -> int:
    """Output cardinality of a stage value for the trace."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        if value.dtype == bool:
            return int(value.sum())
        return len(value)
    if isinstance(value, tuple):  # aggregate: (traj_mask, traj_time)
        return int(value[0].sum())
    if isinstance(value, dict):  # group_support
        return sum(gs.n_highlighted for gs in value.values())
    return 0
