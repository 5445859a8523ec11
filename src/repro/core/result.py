"""Visual query results.

A :class:`QueryResult` is what one coordinated-brushing pass produces:
per-segment highlight masks (one per brush color), their per-trajectory
aggregation (is any segment of trajectory *i* highlighted? how much
highlighted time?), and — when a group scheme is active — per-group
support fractions, the quantity the researcher reads pre-attentively
("a concentration of red highlight in the 'east' group").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.resilience.health import DegradationReport

if TYPE_CHECKING:  # imported lazily to avoid a core ↔ plan cycle
    from repro.core.plan.trace import QueryTrace

__all__ = ["GroupSupport", "QueryResult"]


@dataclass(frozen=True)
class GroupSupport:
    """Highlight support within one trajectory group.

    Attributes
    ----------
    group:
        Group name.
    n_displayed:
        Displayed trajectories belonging to the group.
    n_highlighted:
        Of those, how many have at least one highlighted segment.
    """

    group: str
    n_displayed: int
    n_highlighted: int

    @property
    def support(self) -> float:
        """Fraction highlighted; 0 for empty groups."""
        if self.n_displayed == 0:
            return 0.0
        return self.n_highlighted / self.n_displayed

    @property
    def majority(self) -> bool:
        """The paper's informal criterion: highlight in the majority."""
        return self.n_displayed > 0 and self.n_highlighted * 2 > self.n_displayed

    def __str__(self) -> str:
        return f"{self.group}: {self.n_highlighted}/{self.n_displayed} ({self.support:.0%})"


@dataclass(frozen=True)
class QueryResult:
    """Result of one coordinated-brushing query over a dataset.

    Attributes
    ----------
    color:
        The brush color this result answers for.
    segment_mask:
        (S,) mask over the dataset's packed segments: highlighted
        (touches the brushed region AND inside the time window).
    traj_mask:
        (T,) mask over the dataset: trajectory has >= 1 highlighted
        segment.
    traj_highlight_time:
        (T,) float: highlighted seconds per trajectory.
    displayed:
        (T,) mask of trajectories currently on screen (all True when
        the query ran without a layout restriction).
    group_support:
        Per-group aggregation, when a group scheme was supplied.
    elapsed_s:
        Wall-clock query latency (for E5/A2).  Covers plan **and**
        execute consistently: when a trace is attached this equals
        ``trace.total_s`` (= ``plan_s + execute_s``), which in turn
        bounds the per-stage sum ``trace.stage_total_s`` from above.
    trace:
        Per-stage observability record of the planned pipeline (wall
        time, cardinalities, cache hit/miss per stage); ``None`` for
        results assembled outside the engine (e.g. combinators).
    degraded:
        True when the query completed on a slower rung of the
        degradation ladder (e.g. the summary pyramid failed to build
        and the engine answered with the brute-force scan).  The masks are
        identical to the healthy path either way.
    degradation:
        The ledger of what failed and what the engine did about it
        (None on a fully healthy query).
    """

    color: str
    segment_mask: np.ndarray
    traj_mask: np.ndarray
    traj_highlight_time: np.ndarray
    displayed: np.ndarray
    group_support: dict[str, GroupSupport] = field(default_factory=dict)
    elapsed_s: float = 0.0
    degraded: bool = False
    degradation: DegradationReport | None = None
    trace: "QueryTrace | None" = None

    def __repr__(self) -> str:
        """Journal-readable one-liner: hits, latency, degradation, cache."""
        parts = [
            f"QueryResult[{self.color}]",
            f"{self.n_highlighted}/{self.n_displayed} hi ({self.overall_support:.0%})",
            f"{self.elapsed_s * 1e3:.2f}ms",
        ]
        if self.trace is not None:
            parts.append(
                f"stages={len(self.trace.stages)}"
                f"({self.trace.cache_hits} hit/{self.trace.cache_misses} miss)"
            )
        if self.degraded:
            kinds = (
                ",".join(sorted({e.kind for e in self.degradation.events}))
                if self.degradation is not None
                else "?"
            )
            parts.append(f"degraded[{kinds}]")
        return f"<{' '.join(parts)}>"

    @property
    def n_highlighted(self) -> int:
        """Displayed trajectories with any highlight."""
        return int((self.traj_mask & self.displayed).sum())

    @property
    def n_displayed(self) -> int:
        return int(self.displayed.sum())

    @property
    def overall_support(self) -> float:
        """Highlighted fraction of all displayed trajectories."""
        n = self.n_displayed
        return self.n_highlighted / n if n else 0.0

    def highlighted_indices(self) -> np.ndarray:
        """Dataset indices of highlighted displayed trajectories."""
        return np.flatnonzero(self.traj_mask & self.displayed)

    def support_of(self, group: str) -> float:
        """Support fraction within one group (KeyError if unknown)."""
        return self.group_support[group].support

    def summary(self) -> str:
        """One-line human-readable result, group breakdown included."""
        parts = [
            f"[{self.color}] {self.n_highlighted}/{self.n_displayed} "
            f"displayed trajectories highlighted ({self.overall_support:.0%})"
        ]
        for gs in self.group_support.values():
            parts.append(str(gs))
        return "; ".join(parts)
