"""Interactive exploration session facade.

Ties the pieces of the application together the way the study's
researcher experienced them: a dataset on a wall viewport, a current
layout (switchable by keypad digit), a group scheme, a shared brush
canvas, a temporal window, and a query engine — with a history log of
every action taken (the raw material for the sensemaking analysis of
§V/§VI).  :class:`repro.app.TrajectoryExplorer` builds on this.

Crash safety: pass ``journal_path`` and every action is additionally
appended — one fsync'd JSON line at a time — to an on-disk event
journal.  If the process dies mid-session, :func:`replay_session`
rebuilds the session from the journal, tolerating a torn final line
(the one action that was mid-write when the crash hit).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.brush import BrushStroke
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.hypothesis import Hypothesis, Verdict
from repro.core.result import QueryResult
from repro.core.temporal import TimeWindow
from repro.display.viewport import Viewport
from repro.layout.cells import CellAssignment, assign_groups_to_cells, assign_sequential
from repro.layout.configs import LayoutConfig, preset
from repro.layout.grid import BezelAwareGrid
from repro.layout.groups import TrajectoryGroups
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["ExplorationSession", "SessionEvent", "SessionJournal", "replay_session"]


@dataclass(frozen=True)
class SessionEvent:
    """One logged user action (layout switch, brush, query, ...)."""

    kind: str
    detail: dict[str, Any] = field(default_factory=dict)


def _json_default(value: Any) -> Any:
    """JSON fallback for numpy scalars/arrays in event details."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return str(value)


class SessionJournal:
    """Crash-safe append-only event journal (JSON lines).

    Each record is one line, flushed (and, when ``durable``, fsync'd)
    before :meth:`append` returns — an interrupted session loses at
    most the action that was mid-write, and :meth:`read` tolerates
    exactly that torn final line.

    ``durable=False`` drops the per-record fsync: appends still flush
    to the OS page cache (safe against *process* crash, not power
    loss), trading the ~ms synchronous disk wait for query latency.
    The multi-tenant service tier runs its per-session journals this
    way — the journal is an audit trail there, not the system of
    record — while standalone sessions keep the durable default.
    """

    def __init__(self, path: str | Path, *, durable: bool = True) -> None:
        self.path = Path(path)
        self.durable = durable
        self._fh = self.path.open("a", encoding="utf-8")

    def append(self, kind: str, detail: dict[str, Any]) -> None:
        """Append one event record (fsync'd when ``durable``)."""
        if self._fh is None:
            raise RuntimeError("journal is closed")
        line = json.dumps({"kind": kind, "detail": detail}, default=_json_default)
        self._fh.write(line + "\n")
        self._fh.flush()
        if self.durable:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the underlying file; further appends raise."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def read(path: str | Path) -> list[dict[str, Any]]:
        """Read journal records, dropping a torn trailing line.

        A malformed line *before* the final one means real corruption
        and raises; only the last line may be partial (the crash case).
        """
        records: list[dict[str, Any]] = []
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn final record: the crash ate it
                raise ValueError(
                    f"{path}:{i + 1}: corrupt journal line (not the final record)"
                )
        return records


class ExplorationSession:
    """One researcher's sitting with the application.

    Parameters
    ----------
    dataset:
        The trajectory collection under study.
    viewport:
        The wall viewport hosting the small multiples.
    layout_key:
        Initial keypad layout preset ('1' | '2' | '3').
    use_index:
        Whether the query engine builds its summary pyramid (ignored when
        ``engine`` is supplied).
    journal_path:
        Optional path of a crash-safe append-only event journal; every
        action is durably recorded so :func:`replay_session` can
        rebuild an interrupted session.
    journal_durable:
        Whether the journal fsyncs every record (the default).  The
        service tier passes ``False`` so a shared-store query never
        waits on a synchronous disk write — see
        :class:`SessionJournal`.
    engine:
        A pre-existing engine over the *same* dataset to share instead
        of building a private one.  This is how
        :class:`repro.store.DatasetService` hands N concurrent sessions
        one resident copy of the packed arrays and one stage cache;
        when sessions run on multiple threads, share an engine whose
        stage cache is thread safe (e.g.
        :class:`repro.store.SharedQueryEngine`, which is lock-free over
        a sharded cache).
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        viewport: Viewport,
        *,
        layout_key: str = "3",
        use_index: bool = True,
        journal_path: str | Path | None = None,
        journal_durable: bool = True,
        engine: CoordinatedBrushingEngine | None = None,
    ) -> None:
        if engine is not None and engine.dataset is not dataset:
            raise ValueError("shared engine is bound to a different dataset")
        self.dataset = dataset
        self.viewport = viewport
        self.engine = (
            engine
            if engine is not None
            else CoordinatedBrushingEngine(dataset, use_index=use_index)
        )
        self.canvas = BrushCanvas()
        self.window: TimeWindow = TimeWindow.all()
        self.events: list[SessionEvent] = []
        self.groups: TrajectoryGroups | None = None
        self.page: int = 0
        self._grid: BezelAwareGrid | None = None
        self._assignment: CellAssignment | None = None
        self._config: LayoutConfig | None = None
        self.journal: SessionJournal | None = (
            SessionJournal(journal_path, durable=journal_durable)
            if journal_path is not None
            else None
        )
        self.switch_layout(layout_key)

    def close(self) -> None:
        """Close the journal (if any); the session stays usable but
        stops recording to disk."""
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    # Layout -------------------------------------------------------------
    def switch_layout(self, key: str) -> LayoutConfig:
        """Keypad layout switching ('1', '2', ...); resets paging."""
        config = preset(key)
        self._config = config
        self._grid = config.build(self.viewport)
        self.page = 0
        if self.groups is not None:
            # group rectangles are grid-specific; re-derive the standard
            # scheme on the new grid (custom schemes must be re-applied)
            self.groups = TrajectoryGroups.fig3_scheme(self._grid)
        self._reassign()
        self._log("layout", key=key, cells=config.n_cells)
        return config

    def _reassign(self) -> None:
        assert self._grid is not None
        if self.groups is not None:
            self._assignment = assign_groups_to_cells(
                self.dataset, self._grid, self.groups, page=self.page
            )
        else:
            self._assignment = assign_sequential(
                self.dataset, self._grid, page=self.page
            )

    # Paging ---------------------------------------------------------------
    def next_page(self) -> int:
        """Scroll every bin forward one page (clamped at the end:
        pages showing nothing roll back)."""
        self.page += 1
        self._reassign()
        if self._assignment.n_displayed == 0 and self.page > 0:
            self.page -= 1
            self._reassign()
        self._log("page", page=self.page)
        return self.page

    def prev_page(self) -> int:
        """Scroll back one page (clamped at zero)."""
        if self.page > 0:
            self.page -= 1
            self._reassign()
        self._log("page", page=self.page)
        return self.page

    def enable_fig3_groups(self) -> TrajectoryGroups:
        """Apply the five-zone grouping scheme of Fig. 3."""
        assert self._grid is not None
        self.groups = TrajectoryGroups.fig3_scheme(self._grid)
        self.page = 0
        self._reassign()
        self._log("groups", scheme="fig3", names=self.groups.names())
        return self.groups

    def set_groups(self, groups: TrajectoryGroups) -> None:
        """Apply a custom group scheme (resets paging)."""
        self.groups = groups
        self.page = 0
        self._reassign()
        self._log("groups", scheme="custom", names=groups.names())

    @property
    def grid(self) -> BezelAwareGrid:
        assert self._grid is not None
        return self._grid

    @property
    def assignment(self) -> CellAssignment:
        assert self._assignment is not None
        return self._assignment

    @property
    def layout(self) -> LayoutConfig:
        assert self._config is not None
        return self._config

    # Brushing & temporal filter ------------------------------------------
    def brush(self, stroke: BrushStroke) -> None:
        """Paint a stroke onto the shared canvas."""
        self.canvas.add(stroke)
        self._log(
            "brush",
            _journal_extra={"centers": stroke.centers.tolist()},
            color=stroke.color,
            stamps=stroke.n_stamps,
            radius=stroke.radius,
        )

    def erase(self, color: str | None = None) -> None:
        """Clear the canvas (one color or all)."""
        self.canvas.clear(color)
        self._log("erase", color=color or "*")

    def set_time_window(self, window: TimeWindow) -> None:
        """Move the temporal range slider."""
        self.window = window
        self._log(
            "temporal",
            _journal_extra={
                "lo": window.lo, "hi": window.hi, "fractional": window.fractional
            },
            window=window.describe(),
        )

    # Queries ---------------------------------------------------------------
    def run_query(
        self, color: str = "red", *, deadline_s: float | None = None
    ) -> QueryResult:
        """Evaluate the canvas under the current window and layout.

        ``deadline_s`` forwards a per-query wall-clock budget to the
        engine: an over-budget query returns a degraded empty-partial
        result instead of blocking the interaction loop.

        The per-stage :class:`~repro.core.plan.trace.QueryTrace` is
        journaled alongside the usual counts, so a replayed or audited
        session shows *why* each query took the time it did (which
        stages ran, which were served from the stage cache).
        """
        result = self.engine.query(
            self.canvas, color, window=self.window, assignment=self._assignment,
            deadline_s=deadline_s,
        )
        detail: dict[str, Any] = dict(
            color=color,
            highlighted=result.n_highlighted,
            displayed=result.n_displayed,
            elapsed_s=result.elapsed_s,
        )
        if result.trace is not None:
            detail["trace"] = result.trace.describe()
            detail["stages_executed"] = result.trace.executed_stages()
            detail["cache_hits"] = result.trace.cache_hits
        self._log("query", **detail)
        return result

    def test_hypothesis(self, hypothesis: Hypothesis) -> Verdict:
        """Evaluate a declarative hypothesis under the current layout."""
        verdict = hypothesis.evaluate(self.engine, self._assignment)
        self._log(
            "hypothesis",
            statement=hypothesis.statement,
            verdict=verdict.kind.value,
            support=verdict.support,
        )
        return verdict

    # Bookkeeping ------------------------------------------------------------
    def _log(
        self, kind: str, _journal_extra: dict[str, Any] | None = None, **detail: Any
    ) -> None:
        self.events.append(SessionEvent(kind, detail))
        if self.journal is not None:
            record = dict(detail)
            if _journal_extra:
                record.update(_journal_extra)
            self.journal.append(kind, record)

    def event_counts(self) -> dict[str, int]:
        """Histogram of logged action kinds."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


def replay_session(
    journal_path: str | Path,
    dataset: TrajectoryDataset,
    viewport: Viewport,
    *,
    use_index: bool = True,
    journal_path_out: str | Path | None = None,
) -> ExplorationSession:
    """Rebuild a session from its event journal.

    Re-executes every journaled action against a fresh session over the
    same dataset/viewport: layout switches, paging, the standard
    grouping scheme, brush strokes (full geometry is journaled),
    erases, temporal-window moves and queries.  Custom group schemes
    and hypotheses are code, not data — those records are skipped, as
    with :func:`repro.core.snapshot.restore_session`.

    A torn final record (process died mid-append) is dropped silently —
    that is the crash the journal exists for.
    """
    records = SessionJournal.read(journal_path)
    layout_key = "3"
    start = 0
    if records and records[0]["kind"] == "layout":
        layout_key = records[0]["detail"]["key"]
        start = 1
    session = ExplorationSession(
        dataset,
        viewport,
        layout_key=layout_key,
        use_index=use_index,
        journal_path=journal_path_out,
    )
    for record in records[start:]:
        kind, detail = record["kind"], record["detail"]
        if kind == "layout":
            session.switch_layout(detail["key"])
        elif kind == "page":
            target = int(detail["page"])
            while session.page < target:
                before = session.page
                session.next_page()
                if session.page == before:
                    break  # clamped: dataset no longer reaches that page
            while session.page > target:
                session.prev_page()
        elif kind == "groups":
            if detail.get("scheme") == "fig3":
                session.enable_fig3_groups()
            # custom schemes are code; the caller re-applies them
        elif kind == "brush":
            session.brush(
                BrushStroke(
                    np.asarray(detail["centers"], dtype=np.float64),
                    float(detail["radius"]),
                    detail["color"],
                )
            )
        elif kind == "erase":
            color = detail.get("color", "*")
            session.erase(None if color == "*" else color)
        elif kind == "temporal":
            session.set_time_window(
                TimeWindow(
                    float(detail["lo"]), float(detail["hi"]), bool(detail["fractional"])
                )
            )
        elif kind == "query":
            session.run_query(detail.get("color", "red"))
        # hypothesis records carry code references; skipped on replay
    return session
