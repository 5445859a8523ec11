"""The trajectory exploration application.

:class:`TrajectoryExplorer` is the headless equivalent of the
application in Fig. 3: it wires a trajectory dataset, the arena, a wall
viewport, the small-multiple layout with grouping, the coordinated-
brushing query engine, the temporal filter, the stereo projection with
its ergonomic controls, the paintbrush/pointer interaction layer, and
the renderer into one object with the operations the researcher
performed.  Examples and the analyst simulator build on it.

Since the shared-data-plane refactor the explorer no longer owns the
heavy state itself: it sits on a :class:`repro.store.DatasetService`
(one resident dataset + summary pyramid + stage cache) and holds a
per-user :class:`repro.store.SessionView`.  Constructing an explorer
from a dataset transparently creates a private service; passing
``service=`` lets any number of explorers — one per user at the wall —
share a single resident copy of the packed arrays.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import obs
from repro.core.brush import BrushStroke
from repro.core.hypothesis import Hypothesis, Verdict
from repro.core.result import QueryResult
from repro.core.temporal import TimeWindow
from repro.display.presets import CYBER_COMMONS, paper_viewport
from repro.display.viewport import Viewport
from repro.interaction.events import InputEvent, KeyEvent, PointerEvent
from repro.interaction.keymap import default_keymap
from repro.interaction.recorder import SessionRecorder
from repro.interaction.sliders import IncrementalRequery, RangeSlider
from repro.interaction.tools import PaintbrushTool, PointerRouter
from repro.render.color import HIGHLIGHT_COLORS
from repro.render.compose import anaglyph, compose_wall, stereo_pair_side_by_side
from repro.render.image_io import write_ppm
from repro.render.pipeline import WallRenderer
from repro.sensemaking.provenance import InsightRecord, ProvenanceLog
from repro.stereo.camera import Eye
from repro.stereo.controls import ErgonomicControls
from repro.store.service import DatasetService
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["TrajectoryExplorer"]

#: The eyes each ``render_frame`` mode composes, in composition order.
_MODE_EYES: dict[str, tuple[Eye, ...]] = {
    "left": (Eye.LEFT,),
    "right": (Eye.RIGHT,),
    "pair": (Eye.LEFT, Eye.RIGHT),
    "anaglyph": (Eye.LEFT, Eye.RIGHT),
}


class TrajectoryExplorer:
    """The full application.

    Parameters
    ----------
    dataset:
        The trajectory collection to explore (omit when ``service`` is
        given).
    service:
        An existing :class:`~repro.store.DatasetService` to share —
        this explorer becomes one more session over its resident
        dataset, pyramid, and stage cache.  When omitted, a private
        service is created around ``dataset``.
    arena:
        The shared experimental arena (defaults to the study's).
    viewport:
        The wall viewport; defaults to the paper's 2/3-surface,
        8192 x 1536 region of the 6 x 3 wall.
    layout_key:
        Initial keypad layout ('1' | '2' | '3').
    """

    def __init__(
        self,
        dataset: TrajectoryDataset | None = None,
        *,
        service: DatasetService | None = None,
        arena: Arena | None = None,
        viewport: Viewport | None = None,
        layout_key: str = "3",
        use_index: bool = True,
    ) -> None:
        if service is None:
            if dataset is None:
                raise ValueError("provide a dataset or a DatasetService")
            service = DatasetService(dataset, use_index=use_index)
        elif dataset is not None and dataset is not service.dataset:
            raise ValueError("dataset conflicts with the service's dataset")
        self.service = service
        self.arena = arena or Arena()
        self.viewport = viewport or paper_viewport(CYBER_COMMONS)
        self.session = service.session(self.viewport, layout_key=layout_key)
        self.controls = ErgonomicControls()
        # fit the stereo depth budget to the longest displayed trajectory
        max_dur = max((t.duration for t in service.dataset), default=60.0)
        self.controls.fit_to_comfort(max_dur, center=False)
        self.keymap = default_keymap()
        self.recorder = SessionRecorder()
        self.provenance = ProvenanceLog()
        # the §IV-C.2 temporal range slider, in per-trajectory fractions;
        # dragging a thumb immediately updates the session's window AND
        # incrementally re-queries every painted color — only the
        # temporal stages and what depends on them re-execute (the brush
        # hit-test is served from the engine's stage cache), which is
        # what keeps slider scrubbing at interactive rates
        self.temporal_slider = RangeSlider(0.0, 1.0, min_gap=0.01)
        self._brush_color_idx = 0
        self._router: PointerRouter | None = None
        self._paintbrush: PaintbrushTool | None = None
        self._renderer: WallRenderer | None = None
        self._rebuild_tools()
        self._last_results: dict[str, QueryResult] = {}
        self.temporal_requery = IncrementalRequery(
            self.temporal_slider,
            self.session,
            on_results=self._last_results.update,
        )

    # Internal wiring -----------------------------------------------------
    def _rebuild_tools(self) -> None:
        self._router = PointerRouter(self.viewport, self.session.grid, self.arena)
        color = HIGHLIGHT_COLORS[self._brush_color_idx % len(HIGHLIGHT_COLORS)]
        self._paintbrush = PaintbrushTool(self._router, color=color)

    @property
    def dataset(self) -> TrajectoryDataset:
        return self.session.dataset

    @property
    def brush_color(self) -> str:
        return HIGHLIGHT_COLORS[self._brush_color_idx % len(HIGHLIGHT_COLORS)]

    # High-level operations (what the researcher did) -------------------------
    def switch_layout(self, key: str) -> None:
        """Keypad layout switch; rebuilds pointer routing."""
        self.session.switch_layout(key)
        self._rebuild_tools()

    def group_by_capture_zone(self) -> None:
        """Apply the Fig. 3 five-zone grouping."""
        self.session.enable_fig3_groups()

    def brush(self, stroke: BrushStroke) -> None:
        """Paint a stroke programmatically."""
        self.session.brush(stroke)

    def erase(self, color: str | None = None) -> None:
        """Clear the brush canvas (one color or all) and cached results."""
        self.session.erase(color)
        self._last_results.clear()

    def set_time_window(self, window: TimeWindow) -> None:
        """Apply a temporal filter window to subsequent queries."""
        self.session.set_time_window(window)

    def query(self, color: str | None = None) -> QueryResult:
        """Run the current visual query; caches the result for rendering."""
        color = color or self.brush_color
        result = self.session.run_query(color)
        self._last_results[color] = result
        return result

    def test_hypothesis(
        self, hypothesis: Hypothesis, *, insight: str | None = None,
        parents: tuple[int, ...] = (),
    ) -> Verdict:
        """Evaluate a hypothesis and record its insight provenance.

        Every evaluation appends an :class:`InsightRecord` chaining the
        hypothesis, its full query spec, and the verdict — the
        evidence/insight-provenance integration §VII lists as future
        work.  ``insight`` overrides the auto-generated conclusion
        text; ``parents`` links to earlier insights this one builds on.
        Returns the verdict; the record's index is
        ``len(app.provenance) - 1``.
        """
        verdict = self.session.test_hypothesis(hypothesis)
        self._last_results[hypothesis.color] = verdict.result
        stamps = sum(s.n_stamps for s in hypothesis.strokes)
        self.provenance.add(
            InsightRecord(
                insight=insight
                or f"{hypothesis.statement}: {verdict.kind.value} "
                f"({verdict.support:.0%} support)",
                hypothesis=hypothesis.statement,
                query_spec={
                    "color": hypothesis.color,
                    "stamps": stamps,
                    "window": hypothesis.window.describe(),
                    "target_group": hypothesis.target_group,
                    "threshold": hypothesis.threshold,
                    "contrast": hypothesis.contrast,
                },
                verdict={
                    "kind": verdict.kind.value,
                    "support": verdict.support,
                    "comparison_support": verdict.comparison_support,
                },
                parents=parents,
            )
        )
        return verdict

    # Event-driven interface (recorded input streams) ---------------------------
    def handle_event(self, event: InputEvent) -> None:
        """Feed one input event (pointer or key); records it."""
        self.recorder.record(event)
        if isinstance(event, PointerEvent):
            assert self._paintbrush is not None
            stroke = self._paintbrush.handle(event)
            if stroke is not None:
                self.session.brush(stroke)
        elif isinstance(event, KeyEvent):
            binding = self.keymap.lookup(event.key)
            if binding is None:
                return
            if binding.action == "layout":
                self.switch_layout(binding.arg)
            elif binding.action == "cycle_brush_color":
                self._brush_color_idx += 1
                assert self._paintbrush is not None
                self._paintbrush.set_color(self.brush_color)
            elif binding.action == "erase":
                self.erase()
            elif binding.action == "group_fig3":
                self.group_by_capture_zone()
            elif binding.action == "reset_temporal":
                self.set_time_window(TimeWindow.all())
            elif binding.action == "next_page":
                self.session.next_page()
            elif binding.action == "prev_page":
                self.session.prev_page()
            elif binding.action == "depth_down":
                self.controls.set_depth(self.controls.depth_offset - 0.01)
            elif binding.action == "depth_up":
                self.controls.set_depth(self.controls.depth_offset + 0.01)
            elif binding.action == "exaggeration_down":
                self.controls.set_exaggeration(max(0.0, self.controls.time_scale * 0.8))
            elif binding.action == "exaggeration_up":
                self.controls.set_exaggeration(self.controls.time_scale * 1.25)

    # Rendering --------------------------------------------------------------------
    def renderer(self) -> WallRenderer:
        """The explorer's renderer, bound to the current projection state.

        One renderer lives as long as the session's dataset and the
        viewport, so its retained base layers carry over from frame to
        frame; a new dataset (an epoch rebind) or viewport gets a new
        renderer.  The projection is taken from the ergonomic controls
        on every call.
        """
        renderer = self._renderer
        if (renderer is None or renderer.dataset is not self.dataset
                or renderer.viewport is not self.viewport):
            renderer = self._renderer = WallRenderer(self.dataset, self.arena, self.viewport)
        renderer.projection = self.controls.projection()
        return renderer

    def render_frame(self, *, scale: float = 0.25, mode: str = "left") -> np.ndarray:
        """Render and compose a whole-wall frame.

        ``mode``: ``left`` / ``right`` (one eye), ``pair`` (side by
        side), or ``anaglyph``.  Only the eyes the mode composes are
        rendered.
        """
        eyes = _MODE_EYES.get(mode)
        if eyes is None:
            raise ValueError(f"unknown mode {mode!r}")
        frames = self.renderer().render_viewport(
            self.session.assignment,
            eyes=eyes,
            canvas=self.session.canvas,
            results=self._last_results or None,
        )
        composed = [compose_wall(self.viewport.wall, frames[eye], scale=scale) for eye in eyes]
        if mode == "pair":
            return stereo_pair_side_by_side(*composed)
        if mode == "anaglyph":
            return anaglyph(*composed)
        return composed[0]

    def save_frame(self, path: str | Path, **kwargs) -> None:
        """Render and write a PPM frame."""
        write_ppm(self.render_frame(**kwargs), path)

    # Introspection ------------------------------------------------------------------
    def status(self) -> dict:
        """One-glance application state."""
        return {
            "dataset": len(self.dataset),
            "layout": f"{self.session.layout.n_cols}x{self.session.layout.n_rows}",
            "displayed": self.session.assignment.n_displayed,
            "coverage": round(self.session.assignment.coverage(len(self.dataset)), 3),
            "groups": self.session.groups.names() if self.session.groups else None,
            "brush_strokes": self.session.canvas.n_strokes,
            "window": self.session.window.describe(),
            "time_scale": self.controls.time_scale,
            "depth_offset": self.controls.depth_offset,
            "query_cache": self.session.engine.cache_stats(),
            "session_id": self.session.session_id,
            "service_sessions": self.service.n_sessions,
        }

    def telemetry(self) -> dict:
        """The process telemetry plane, read back as plain data.

        Returns ``{"enabled": bool, "counters": ..., "gauges": ...,
        "histograms": ...}`` — the counters/gauges/histograms maps are
        empty while telemetry is disabled (the default).  Enable with
        ``repro.obs.enable()``; render a scrape-ready exposition with
        ``repro.obs.render_prometheus(repro.obs.telemetry_snapshot())``.
        """
        snapshot = obs.telemetry_snapshot()
        return {"enabled": obs.enabled(), **snapshot.as_dict()}
