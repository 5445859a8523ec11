"""The paper's primary contribution: scalable visual queries.

Coordinated brushing (§IV-C.2, Fig. 5): the user paints a region of one
trajectory's arena background; because every small-multiple cell shares
the same arena coordinate system, the brushed region is simultaneously
meaningful in *all* cells, and every displayed trajectory gets its
segments highlighted wherever the insect crossed the brushed area.
Combined with the temporal filter, this turns high-level hypotheses
("east-captured ants exit west", "seed-droppers linger centrally early
on") into single visual queries whose results are pre-attentively
readable across hundreds of trajectories at once.

This subpackage implements the query machinery headlessly and exactly:

* :mod:`brush` / :mod:`canvas` — paintbrush strokes and the shared
  arena-space brush canvas (multiple colors = multiple simultaneous
  queries);
* :mod:`temporal` — the time-window range slider, in absolute seconds
  or per-trajectory fractional form ("the last few seconds of the
  experiment");
* :mod:`engine` — the vectorized coordinated-brushing engine over a
  whole dataset; its one spatial index is the summary pyramid of
  :mod:`aggregate`, which keeps a brush query's cold cost proportional
  to the brushed region rather than the segment count (ablation A2);
* :mod:`spatial_index` — a standalone uniform-grid segment index that
  no query route uses; it remains only while the interaction
  benchmark's tracer still wraps its constructor;
* :mod:`plan` — the staged query-plan pipeline behind the engine:
  planner, executor, keyed stage cache, and per-stage traces;
* :mod:`result` — per-segment/per-trajectory highlight masks, group
  support fractions, and verdicts;
* :mod:`hypothesis` — declarative hypotheses evaluated as visual
  queries;
* :mod:`session` — the interactive exploration session facade;
* :mod:`multiscale` — cluster-level queries for the §VI-C scaling path.
"""

from repro.core.brush import BrushStroke, stroke_from_path, stroke_from_rect
from repro.core.plan import (
    QueryExecutor,
    QueryPlan,
    QueryPlanner,
    QuerySpec,
    QueryTrace,
    StageCache,
    StageRecord,
)
from repro.core.canvas import BrushCanvas
from repro.core.temporal import TimeWindow
from repro.core.spatial_index import UniformGridIndex
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.result import GroupSupport, QueryResult
from repro.core.hypothesis import Hypothesis, Verdict
from repro.core.session import ExplorationSession, SessionJournal, replay_session
from repro.core.multiscale import MultiscaleExplorer
from repro.core.combine import combine_and, combine_and_not, combine_or
from repro.core.profile import TemporalProfile, temporal_profile
from repro.core.snapshot import SessionSnapshot, restore_session, snapshot_session

__all__ = [
    "QuerySpec",
    "QueryTrace",
    "StageRecord",
    "StageCache",
    "QueryPlan",
    "QueryPlanner",
    "QueryExecutor",
    "MultiscaleExplorer",
    "combine_and",
    "combine_and_not",
    "combine_or",
    "TemporalProfile",
    "temporal_profile",
    "SessionSnapshot",
    "restore_session",
    "snapshot_session",
    "BrushStroke",
    "stroke_from_path",
    "stroke_from_rect",
    "BrushCanvas",
    "TimeWindow",
    "UniformGridIndex",
    "CoordinatedBrushingEngine",
    "QueryResult",
    "GroupSupport",
    "Hypothesis",
    "Verdict",
    "ExplorationSession",
    "SessionJournal",
    "replay_session",
]
