"""The query planner.

Turns a :class:`~repro.core.plan.spec.QuerySpec` into a
:class:`QueryPlan`: a topologically ordered DAG of named stages.  The
planner knows exactly three strategies.  When the engine holds a
:class:`~repro.core.aggregate.SummaryPyramid` (its one spatial index)
it plans the aggregate-first route

    agg_temporal → agg_spatial → agg_brush → drilldown → aggregate → group_support

where the ``agg_*`` stages tri-state supernodes (all-in / all-out /
inconclusive) from summary statistics, ``agg_brush`` selects the
brush's hit rows and ``drilldown`` the final rows, running the exact
per-segment kernels only over inconclusive cells.  Without a pyramid
it plans the brute-force route

    temporal_mask → brush_hit → combine → aggregate → group_support

which scans every segment: the oracle every other route is pinned to,
and the degradation rung a failed pyramid build lands on.  An empty
brush short-circuits to the trivial ``empty-brush`` plan over the same
stages.  Both routes select bit-identical sorted rows, so the executor
stays a mechanical "run stages through the cache" loop.

Cache-key construction is the heart of the incremental behaviour.
Keys embed exactly the epochs a stage's output depends on, as tagged
pairs (``("ds", dataset_epoch)``, ``("cv", color_epoch)``,
``("win", window_key)``):

* ``temporal_mask`` / ``agg_temporal`` depend on the dataset and
  window only — a color-only change reuses them outright;
* ``brush_hit`` / ``agg_spatial`` / ``agg_brush`` depend on the
  dataset and the *color's own* stroke epoch, never the window — a
  slider-only change reuses the (expensive) capsule hit-tests and
  re-runs just the cheap temporal stages (``agg_temporal → drilldown →
  aggregate`` on the aggregate route);
* ``combine`` / ``drilldown`` / ``aggregate`` / ``group_support``
  depend on both.

Aggregate-route keys additionally embed the pyramid's build token so a
republished pyramid invalidates every classification derived from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.plan.spec import QuerySpec

__all__ = ["PlannedStage", "QueryPlan", "QueryPlanner", "STAGE_ORDER"]

STAGE_ORDER = (
    "temporal_mask",
    "brush_hit",
    "agg_temporal",
    "agg_spatial",
    "agg_brush",
    "drilldown",
    "combine",
    "aggregate",
    "group_support",
)


@dataclass(frozen=True)
class PlannedStage:
    """One node of the plan DAG.

    Attributes
    ----------
    name:
        Stage name (one of :data:`STAGE_ORDER`).
    key:
        Stage cache key (``None`` = never cached, e.g. group support
        for an anonymous assignment).
    deps:
        Names of stages whose outputs this stage consumes; always
        earlier in the plan (validated at construction).
    """

    name: str
    key: tuple | None
    deps: tuple[str, ...] = ()


@dataclass(frozen=True)
class QueryPlan:
    """An ordered, validated stage DAG for one spec."""

    spec: QuerySpec
    stages: tuple[PlannedStage, ...]
    strategy: str
    plan_s: float

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for stage in self.stages:
            if stage.name not in STAGE_ORDER:
                raise ValueError(f"unknown stage {stage.name!r}")
            missing = [d for d in stage.deps if d not in seen]
            if missing:
                raise ValueError(
                    f"stage {stage.name!r} depends on {missing} before they run"
                )
            seen.add(stage.name)

    def stage_names(self) -> tuple[str, ...]:
        """Planned stage names in execution order."""
        return tuple(s.name for s in self.stages)

    @property
    def mask_stage(self) -> str:
        """Name of the stage producing the final segment rows.

        ``drilldown`` on the aggregate route, ``combine`` otherwise —
        downstream consumers (the ``aggregate`` reduction, the engine's
        result assembly) read this instead of hard-coding the route.
        """
        return "drilldown" if "drilldown" in self else "combine"

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self.stages)


class QueryPlanner:
    """Builds :class:`QueryPlan` objects from specs.

    Parameters
    ----------
    pyramid_token:
        Identity of the engine's summary-pyramid build (``None`` when
        no pyramid is available); embedded in every aggregate-route key
        so a republished pyramid invalidates cached classifications.
    """

    def __init__(self, pyramid_token: tuple | None = None) -> None:
        self.pyramid_token = pyramid_token

    def plan(
        self, spec: QuerySpec, *, pyramid_token: tuple | None = None
    ) -> QueryPlan:
        """Build the stage plan for one spec.

        ``pyramid_token`` overrides the constructor's (the engine passes
        the *current* identity so a pyramid swap re-plans correctly).
        A pyramid routes the plan aggregate-first; without one it runs
        brute force.
        """
        t0 = time.perf_counter()
        pyr = (
            pyramid_token if pyramid_token is not None else self.pyramid_token
        )
        # the epoch alone names the dataset: a stage cache is private to
        # one engine or shared by one service's engines, whose dataset
        # epochs strictly increase (DatasetService._swap_active)
        ds = ("ds", spec.dataset_epoch)
        cv = ("cv", (spec.canvas_uid, spec.color_epoch))
        win = ("win", spec.window_key)

        if spec.n_stamps == 0:
            strategy = "empty-brush"
        elif pyr is not None:
            strategy = "aggregate"
        else:
            strategy = "brute-force"

        stages: list[PlannedStage] = []
        if strategy == "aggregate":
            mask_deps: tuple[str, ...]
            stages.append(
                PlannedStage("agg_temporal", ("agg_temporal", ds, win, pyr))
            )
            stages.append(
                PlannedStage(
                    "agg_spatial", ("agg_spatial", ds, cv, spec.color, pyr)
                )
            )
            stages.append(
                PlannedStage(
                    "agg_brush",
                    ("agg_brush", ds, cv, spec.color, pyr),
                    deps=("agg_spatial",),
                )
            )
            stages.append(
                PlannedStage(
                    "drilldown",
                    ("drilldown", ds, cv, win, spec.color, pyr),
                    deps=("agg_temporal", "agg_brush"),
                )
            )
            mask_deps = ("drilldown",)
        else:
            stages.append(
                PlannedStage("temporal_mask", ("temporal_mask", ds, win))
            )
            stages.append(
                PlannedStage("brush_hit", ("brush_hit", ds, cv, spec.color, strategy))
            )
            stages.append(
                PlannedStage(
                    "combine",
                    ("combine", ds, cv, win, spec.color, strategy),
                    deps=("temporal_mask", "brush_hit"),
                )
            )
            mask_deps = ("combine",)
        stages.append(
            PlannedStage(
                "aggregate",
                ("aggregate", ds, cv, win, spec.color, strategy),
                deps=mask_deps,
            )
        )
        if spec.assignment_id is not None:
            stages.append(
                PlannedStage(
                    "group_support",
                    (
                        "group_support",
                        ds,
                        cv,
                        win,
                        spec.color,
                        strategy,
                        spec.assignment_id,
                    ),
                    deps=("aggregate",),
                )
            )
        return QueryPlan(
            spec=spec,
            stages=tuple(stages),
            strategy=strategy,
            plan_s=time.perf_counter() - t0,
        )
