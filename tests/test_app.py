"""Tests for the TrajectoryExplorer application facade."""

import numpy as np
import pytest

from repro.app import TrajectoryExplorer
from repro.core.brush import stroke_from_rect
from repro.core.temporal import TimeWindow
from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.interaction.events import KeyEvent, PointerEvent, PointerPhase
from repro.render.compose import compose_wall
from repro.render.pipeline import WallRenderer
from repro.stereo.camera import Eye


@pytest.fixture()
def small_viewport():
    wall = DisplayWall(
        cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
        panel_px_width=120, panel_px_height=68, bezel=BezelSpec(),
    )
    return Viewport(wall)


@pytest.fixture()
def app(study_dataset, small_viewport):
    return TrajectoryExplorer(study_dataset, viewport=small_viewport, layout_key="1")


class TestHighLevelOps:
    def test_status(self, app, study_dataset):
        s = app.status()
        assert s["dataset"] == len(study_dataset)
        assert s["layout"] == "15x4"

    def test_comfort_fitted_on_init(self, app, study_dataset):
        max_dur = max(t.duration for t in study_dataset)
        assert app.controls.is_comfortable(max_dur)

    def test_fig5_workflow(self, app, arena):
        app.group_by_capture_zone()
        r = arena.radius
        app.brush(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red"))
        app.set_time_window(TimeWindow.end(0.15))
        result = app.query("red")
        assert result.group_support["east"].support > result.group_support["on"].support

    def test_erase_clears_results(self, app):
        app.brush(stroke_from_rect((0, 0), (0.1, 0.1), 0.05, "red"))
        app.query("red")
        app.erase()
        assert app.session.canvas.is_empty()
        assert not app._last_results


class TestEventDriven:
    def test_key_layout_switch(self, app):
        app.handle_event(KeyEvent(1.0, "2"))
        assert app.status()["layout"] == "24x6"

    def test_key_grouping(self, app):
        app.handle_event(KeyEvent(1.0, "g"))
        assert app.status()["groups"] is not None

    def test_brush_color_cycle(self, app):
        first = app.brush_color
        app.handle_event(KeyEvent(1.0, "b"))
        assert app.brush_color != first

    def test_pointer_drag_paints(self, app):
        app.handle_event(PointerEvent(0.0, 20, 20, PointerPhase.DOWN))
        app.handle_event(PointerEvent(0.5, 40, 20, PointerPhase.MOVE))
        app.handle_event(PointerEvent(1.0, 60, 20, PointerPhase.UP))
        assert app.session.canvas.n_strokes == 1

    def test_unbound_key_ignored(self, app):
        before = app.status()
        app.handle_event(KeyEvent(0.0, "q"))
        assert app.status() == before

    def test_events_recorded(self, app):
        app.handle_event(KeyEvent(0.0, "2"))
        app.handle_event(KeyEvent(1.0, "g"))
        assert len(app.recorder) == 2

    def test_sliders_via_keys(self, app):
        d0 = app.controls.depth_offset
        app.handle_event(KeyEvent(0.0, "]"))
        assert app.controls.depth_offset > d0
        t0 = app.controls.time_scale
        app.handle_event(KeyEvent(1.0, "-"))
        assert app.controls.time_scale < t0

    def test_reset_temporal(self, app):
        app.set_time_window(TimeWindow.end(0.1))
        app.handle_event(KeyEvent(0.0, "t"))
        assert app.session.window.is_everything


class TestRendering:
    def test_render_modes(self, app):
        left = app.render_frame(mode="left", scale=0.5)
        assert left.ndim == 3 and left.shape[2] == 3
        pair = app.render_frame(mode="pair", scale=0.5)
        assert pair.shape[1] == 2 * left.shape[1]
        ana = app.render_frame(mode="anaglyph", scale=0.5)
        assert ana.shape == left.shape

    def test_unknown_mode(self, app):
        with pytest.raises(ValueError):
            app.render_frame(mode="hologram")

    @pytest.mark.parametrize("mode, eye", [("left", Eye.LEFT), ("right", Eye.RIGHT)])
    def test_one_eye_mode_renders_only_that_eye(
        self, app, arena, small_viewport, monkeypatch, mode, eye
    ):
        """A one-eye frame renders only that eye's jobs and is, byte for
        byte, that eye's half of a stereo render."""
        r = arena.radius
        app.brush(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red"))
        results = {"red": app.query("red")}
        rendered_eyes = []
        render_jobs = WallRenderer.render_jobs

        def spy(self, jobs, **kwargs):
            rendered_eyes.extend(job.eye for job in jobs)
            return render_jobs(self, jobs, **kwargs)

        monkeypatch.setattr(WallRenderer, "render_jobs", spy)
        frame = app.render_frame(mode=mode, scale=0.5)
        assert rendered_eyes and set(rendered_eyes) == {eye}
        stereo = WallRenderer(app.dataset, app.arena, small_viewport)
        stereo.projection = app.controls.projection()
        frames = stereo.render_viewport(
            app.session.assignment, eyes=(Eye.LEFT, Eye.RIGHT),
            canvas=app.session.canvas, results=results,
        )
        want = compose_wall(small_viewport.wall, frames[eye], scale=0.5)
        assert frame.tobytes() == want.tobytes()

    def test_save_frame(self, app, tmp_path):
        from repro.render.image_io import read_ppm

        path = tmp_path / "frame.ppm"
        app.save_frame(path, mode="left", scale=0.5)
        img = read_ppm(path)
        assert img.size > 0

    def test_query_results_rendered(self, app, arena):
        r = arena.radius
        app.brush(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red"))
        plain = app.render_frame(mode="left", scale=0.5)
        app.query("red")
        highlighted = app.render_frame(mode="left", scale=0.5)
        assert not np.allclose(plain, highlighted)
