"""The staged query-plan pipeline.

``CoordinatedBrushingEngine.query`` used to be a monolith: temporal
mask, spatial pruning, capsule hit-test and aggregation recomputed
from scratch on every call, even when the only thing that moved was
the time slider.  This subpackage splits the query path into an
explicit plan/execute pipeline:

* :mod:`spec` — :class:`QuerySpec`, the immutable, hashable identity
  of one query (dataset epoch, canvas stroke epochs, window key,
  assignment token);
* :mod:`trace` — :class:`QueryTrace` / :class:`StageRecord`, the
  per-stage observability surface (wall time, cardinalities, cache
  hit/miss) attached to every :class:`~repro.core.result.QueryResult`;
* :mod:`cache` — :class:`StageCache`, a keyed LRU (striped over
  locked shards for concurrent sessions) whose keys embed explicit
  invalidation epochs (dataset epoch, canvas stroke epoch, window key)
  so stale entries can never be served;
* :mod:`planner` — :class:`QueryPlanner`, which plans one of three
  strategies: the aggregate-first route over the engine's summary
  pyramid (``agg_temporal → agg_spatial → agg_brush → classify →
  drilldown → aggregate → group_support``), brute force without one
  (``temporal_mask → brush_hit → combine → aggregate →
  group_support``), or the trivial plan of an empty brush;
* :mod:`executor` — :class:`QueryExecutor`, which runs planned stages
  through the cache, so a slider-only change re-executes just the
  temporal stages and what depends on them, and a color-only change
  reuses the temporal stage outright.

This is what makes the paper's "a brush or slider tweak answers in a
few seconds across ~500 trajectories" hold as datasets grow: the warm
path touches only the stages whose inputs actually changed.
"""

from repro.core.plan.cache import StageCache
from repro.core.plan.executor import Deadline, DeadlineExceeded, QueryExecutor
from repro.core.plan.planner import PlannedStage, QueryPlan, QueryPlanner
from repro.core.plan.spec import QuerySpec
from repro.core.plan.trace import QueryTrace, StageRecord

__all__ = [
    "QuerySpec",
    "QueryTrace",
    "StageRecord",
    "StageCache",
    "PlannedStage",
    "QueryPlan",
    "QueryPlanner",
    "QueryExecutor",
    "Deadline",
    "DeadlineExceeded",
]
