"""Query identity.

A :class:`QuerySpec` captures everything that determines a query's
answer — and nothing that doesn't.  Two queries with equal specs are
the same query, which is precisely what makes stage outputs safely
memoizable: every cache key the planner derives embeds the relevant
slice of the spec, so a stale entry is unreachable by construction
(epoch bumps change the key rather than flushing the cache).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.canvas import BrushCanvas
from repro.core.temporal import TimeWindow
from repro.layout.cells import CellAssignment
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["QuerySpec", "assignment_token"]


def assignment_token(assignment: CellAssignment | None) -> int | None:
    """Stable hashable identity of a layout assignment.

    Derived from the content that affects group support (which
    trajectory sits in which cell, which group owns each cell, the
    group names), not object identity — re-deriving the same layout
    yields the same token and therefore the same cache keys.
    """
    if assignment is None:
        return None
    names: tuple[str, ...] = ()
    if assignment.groups is not None:
        names = tuple(spec.name for spec in assignment.groups)
    return hash(
        (
            assignment.cell_to_traj.tobytes(),
            assignment.group_of_cell.tobytes(),
            names,
        )
    )


@dataclass(frozen=True)
class QuerySpec:
    """Immutable, hashable identity of one coordinated-brushing query.

    Attributes
    ----------
    color:
        The brush color under evaluation.
    window_key:
        Canonical :meth:`TimeWindow.cache_key` of the temporal filter.
    dataset_epoch:
        The dataset's mutation epoch at query time; any append bumps
        it, invalidating every stage computed over the old segments.
    canvas_uid:
        Unique id of the canvas instance — two different canvases that
        happen to share an epoch must never collide on cache keys.
    canvas_epoch:
        The canvas's global stroke epoch (any stroke/erase bumps it).
    color_epoch:
        The stroke epoch of ``color`` alone — strokes of *other*
        colors leave it unchanged, so a green stroke does not evict
        red's spatial stages.
    assignment_id:
        :func:`assignment_token` of the layout restriction (None when
        querying without a layout).
    n_stamps:
        Stamp count of ``color`` on the canvas (0 = empty brush, which
        plans to a trivial all-false hit mask).
    deadline_s:
        Per-query wall-clock budget in seconds (``None`` = unbounded).
        Deliberately **excluded** from cache keys: the deadline changes
        how much of the answer gets computed this time, never what the
        answer *is* — stages that complete within budget are cached and
        reusable by deadline-free queries, while stages synthesized
        after expiry are tainted and never cached at all.

    The route is not part of the spec: it follows from whether the
    engine holds a summary pyramid (see
    :class:`~repro.core.plan.planner.QueryPlanner`), and both routes
    answer bit-identically.
    """

    color: str
    window_key: tuple
    dataset_epoch: int
    canvas_uid: int
    canvas_epoch: int
    color_epoch: int
    assignment_id: int | None
    n_stamps: int
    deadline_s: float | None = None

    @classmethod
    def capture(
        cls,
        dataset: TrajectoryDataset,
        canvas: BrushCanvas,
        color: str,
        window: TimeWindow,
        assignment: CellAssignment | None,
        *,
        deadline_s: float | None = None,
    ) -> "QuerySpec":
        """Snapshot the current epochs/keys into a spec."""
        centers, _ = canvas.stamps_of(color)
        return cls(
            color=color,
            window_key=window.cache_key(),
            dataset_epoch=dataset.epoch,
            canvas_uid=canvas.uid,
            canvas_epoch=canvas.stroke_epoch,
            color_epoch=canvas.color_epoch(color),
            assignment_id=assignment_token(assignment),
            n_stamps=len(centers),
            deadline_s=deadline_s,
        )
