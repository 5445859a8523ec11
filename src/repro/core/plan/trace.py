"""Per-stage query observability.

Every executed plan produces a :class:`QueryTrace`: one
:class:`StageRecord` per stage with wall time, input/output
cardinality, and whether the stage was served from the
:class:`~repro.core.plan.cache.StageCache`.  The trace rides on
:class:`~repro.core.result.QueryResult` and is journaled by the
session, giving "why was this query slow?" a first-class answer
(e.g. "agg_brush missed because the canvas epoch moved").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StageRecord", "QueryTrace"]


@dataclass(frozen=True)
class StageRecord:
    """One stage execution (or cache hit) inside a query.

    Attributes
    ----------
    stage:
        Stage name (one of
        :data:`~repro.core.plan.planner.STAGE_ORDER`).
    elapsed_s:
        Wall time of the stage (near zero on a cache hit).
    n_in:
        Input cardinality (segments/candidates entering the stage).
    n_out:
        Output cardinality (elements selected by the stage).
    cache_hit:
        True when the output came from the stage cache.
    degraded:
        True when this stage (or a dependency) ran on a fallback rung
        of the degradation ladder; degraded outputs are never cached.
    detail:
        Free-form annotation (strategy, fallback reason).
    """

    stage: str
    elapsed_s: float
    n_in: int
    n_out: int
    cache_hit: bool = False
    degraded: bool = False
    detail: str = ""

    def describe(self) -> str:
        """Compact ``name[hit|12.3ms] 5000→120`` form for logs."""
        status = "hit" if self.cache_hit else f"{self.elapsed_s * 1e3:.2f}ms"
        tag = "!" if self.degraded else ""
        return f"{self.stage}{tag}[{status}] {self.n_in}→{self.n_out}"


@dataclass
class QueryTrace:
    """The full per-stage record of one planned query.

    Attributes
    ----------
    strategy:
        The planner's routing decision (``aggregate`` | ``brute-force``
        | ``empty-brush``).
    plan_s:
        Wall time spent building the plan.
    execute_s:
        Wall time spent executing it (cache lookups included).
    stages:
        Stage records in execution order.
    """

    strategy: str = ""
    plan_s: float = 0.0
    execute_s: float = 0.0
    stages: list[StageRecord] = field(default_factory=list)

    def record(self, record: StageRecord) -> None:
        """Append one stage's record (in execution order)."""
        self.stages.append(record)

    # Aggregates ---------------------------------------------------------
    @property
    def total_s(self) -> float:
        """Plan + execute wall time: what ``QueryResult.elapsed_s``
        reports, by construction covering every stage."""
        return self.plan_s + self.execute_s

    @property
    def stage_total_s(self) -> float:
        """Sum of per-stage wall times (<= :attr:`total_s`)."""
        return sum(r.elapsed_s for r in self.stages)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.stages if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.stages if not r.cache_hit)

    def executed_stages(self) -> list[str]:
        """Names of stages that actually ran (cache misses), in order."""
        return [r.stage for r in self.stages if not r.cache_hit]

    def stage_names(self) -> list[str]:
        """All stage names in the plan's execution order."""
        return [r.stage for r in self.stages]

    def __getitem__(self, stage: str) -> StageRecord:
        """Record of one stage by name (KeyError if absent)."""
        for r in self.stages:
            if r.stage == stage:
                return r
        raise KeyError(stage)

    def __contains__(self, stage: str) -> bool:
        return any(r.stage == stage for r in self.stages)

    def describe(self) -> str:
        """One-line journal-ready summary of the whole trace."""
        parts = " ".join(r.describe() for r in self.stages)
        return (
            f"{self.strategy} {self.total_s * 1e3:.2f}ms "
            f"({self.cache_hits} hit/{self.cache_misses} miss): {parts}"
        )
