"""Tests for the wall render pipeline."""

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_groups_to_cells, assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.layout.groups import TrajectoryGroups
from repro.render.pipeline import WallRenderer
from repro.stereo.camera import Eye
from repro.synth.arena import Arena


@pytest.fixture(scope="module")
def small_viewport():
    """A tiny 2x1-panel wall so render tests stay fast."""
    wall = DisplayWall(
        cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
        panel_px_width=160, panel_px_height=90, bezel=BezelSpec(),
    )
    return Viewport(wall)


@pytest.fixture(scope="module")
def small_grid(small_viewport):
    return BezelAwareGrid(small_viewport, 6, 2)


@pytest.fixture(scope="module")
def renderer(study_dataset, small_viewport):
    return WallRenderer(study_dataset, Arena(), small_viewport)


class TestJobs:
    def test_one_job_per_tile_eye(self, renderer, study_dataset, small_grid):
        asg = assign_sequential(study_dataset, small_grid)
        jobs = renderer.make_jobs(asg)
        assert len(jobs) == 2 * 2  # 2 tiles x 2 eyes

    def test_cells_partition_across_tiles(self, renderer, study_dataset, small_grid):
        asg = assign_sequential(study_dataset, small_grid)
        jobs = renderer.make_jobs(asg, (Eye.LEFT,))
        total_cells = sum(len(j.cell_rects) for j in jobs)
        assert total_cells == small_grid.n_cells

    def test_group_colors_attached(self, study_dataset, small_viewport, small_grid, renderer):
        groups = TrajectoryGroups.fig3_scheme(small_grid)
        asg = assign_groups_to_cells(study_dataset, small_grid, groups)
        jobs = renderer.make_jobs(asg, (Eye.LEFT,))
        all_colors = np.concatenate([j.cell_colors for j in jobs])
        # at least two distinct group colors present
        assert len(np.unique(all_colors.round(3), axis=0)) >= 2


class TestRenderJob:
    def test_framebuffer_size(self, renderer, study_dataset, small_grid, small_viewport):
        asg = assign_sequential(study_dataset, small_grid)
        job = renderer.make_jobs(asg, (Eye.LEFT,))[0]
        fb = renderer.render_job(job)
        assert (fb.width, fb.height) == (160, 90)

    def test_trajectories_visible(self, renderer, study_dataset, small_grid):
        asg = assign_sequential(study_dataset, small_grid)
        job = renderer.make_jobs(asg, (Eye.LEFT,))[0]
        fb = renderer.render_job(job)
        # some pixels clearly brighter than the background
        assert (fb.data.max(axis=2) > 0.4).sum() > 30

    def test_highlights_add_brush_color(self, renderer, study_dataset, small_grid, arena):
        asg = assign_sequential(study_dataset, small_grid)
        canvas = BrushCanvas()
        canvas.add(stroke_from_rect((-0.5, -0.3), (-0.3, 0.3), 0.06, "red"))
        engine = CoordinatedBrushingEngine(study_dataset)
        results = {"red": engine.query(canvas, "red")}
        job = renderer.make_jobs(asg, (Eye.LEFT,))[0]
        plain = renderer.render_job(job)
        brushed = renderer.render_job(job, canvas=canvas, results=results)
        # the brushed frame has more red-dominant pixels
        def red_dominant(fb):
            return int(
                ((fb.data[..., 0] > 0.5) & (fb.data[..., 0] > 2 * fb.data[..., 2])).sum()
            )
        assert red_dominant(brushed) > red_dominant(plain)


class TestProjectOnce:
    def test_one_projection_per_cell_and_eye(
        self, monkeypatch, study_dataset, small_viewport, small_grid, arena
    ):
        """The trajectory and every highlight color share one projected
        polyline per (cell, eye) and job, and a retained highlight layer
        needs none."""
        from repro.stereo.projection import SpaceTimeProjection

        asg = assign_sequential(study_dataset, small_grid)
        canvas = BrushCanvas()
        canvas.add(stroke_from_rect((-0.4, -0.4), (0.4, 0.4), 0.1, "red"))
        canvas.add(stroke_from_rect((-0.3, -0.2), (0.3, 0.2), 0.1, "blue"))
        engine = CoordinatedBrushingEngine(study_dataset)
        results = engine.query_all_colors(canvas, assignment=asg)
        calls = []
        project = SpaceTimeProjection.project
        monkeypatch.setattr(
            SpaceTimeProjection, "project",
            lambda self, *a, **kw: calls.append(1) or project(self, *a, **kw),
        )
        renderer = WallRenderer(study_dataset, Arena(), small_viewport)
        jobs = renderer.make_jobs(asg)
        renderer.render_jobs(jobs, canvas=canvas, results=results)
        cells = sum(int((job.cell_traj >= 0).sum()) for job in jobs)
        assert len(calls) == cells  # cold: every trajectory, highlights reuse it
        calls.clear()
        renderer.render_jobs(jobs, canvas=canvas, results=results)
        assert not calls  # warm, same results: every layer is retained

        # replace red's stroke: only a cell whose new red mask is not
        # empty and matches no layer the cell already has is projected
        canvas.clear("red")
        canvas.add(stroke_from_rect((-0.1, -0.4), (0.4, 0.1), 0.08, "red"))
        new = {**results, "red": engine.query(canvas, "red", assignment=asg)}
        packed = study_dataset.packed()
        changed = 0
        for job in jobs:
            for traj in job.cell_traj[job.cell_traj >= 0]:
                rows = packed.rows_of(traj)
                mask = new["red"].segment_mask[rows]
                kept = {res.segment_mask[rows].tobytes() for res in results.values()}
                changed += bool(mask.any()) and mask.tobytes() not in kept
        renderer.render_jobs(jobs, canvas=canvas, results=new)
        assert 0 < changed < cells
        assert len(calls) == changed

    def test_warm_render_places_each_cell_once_per_job(
        self, monkeypatch, study_dataset, small_viewport, small_grid, arena
    ):
        """Every draw of a cell takes its pixel box from one placement:
        a warm re-render places each displayed cell at most once per job,
        for its footprints and every highlight color together."""
        from repro.render.raster import CellRenderer

        asg = assign_sequential(study_dataset, small_grid)
        canvas = BrushCanvas()
        canvas.add(stroke_from_rect((-0.4, -0.4), (0.4, 0.4), 0.1, "red"))
        canvas.add(stroke_from_rect((-0.3, -0.2), (0.3, 0.2), 0.1, "blue"))
        results = CoordinatedBrushingEngine(study_dataset).query_all_colors(
            canvas, assignment=asg
        )
        renderer = WallRenderer(study_dataset, Arena(), small_viewport)
        jobs = renderer.make_jobs(asg)
        renderer.render_jobs(jobs, canvas=canvas, results=results)
        placed = []  # (the job's CellRenderer, cell rect), kept alive
        place = CellRenderer.place
        monkeypatch.setattr(
            CellRenderer, "place",
            lambda self, mapper: placed.append((self, mapper.cell_rect))
            or place(self, mapper),
        )
        renderer.render_jobs(jobs, canvas=canvas, results=results)
        displayed = sum(int((job.cell_traj >= 0).sum()) for job in jobs)
        assert len({id(cell) for cell, _ in placed}) == len(jobs)
        assert 0 < len(placed) <= displayed
        assert len({(id(cell), rect) for cell, rect in placed}) == len(placed)


class TestRenderViewport:
    def test_full_structure(self, renderer, study_dataset, small_grid):
        asg = assign_sequential(study_dataset, small_grid)
        frames = renderer.render_viewport(asg)
        assert set(frames) == {Eye.LEFT, Eye.RIGHT}
        assert set(frames[Eye.LEFT]) == {(0, 0), (1, 0)}

    def test_single_eye(self, renderer, study_dataset, small_grid):
        asg = assign_sequential(study_dataset, small_grid)
        frames = renderer.render_viewport(asg, eyes=(Eye.LEFT,))
        assert set(frames) == {Eye.LEFT}

    def test_deterministic(self, renderer, study_dataset, small_grid):
        asg = assign_sequential(study_dataset, small_grid)
        f1 = renderer.render_viewport(asg, eyes=(Eye.LEFT,))
        f2 = renderer.render_viewport(asg, eyes=(Eye.LEFT,))
        np.testing.assert_array_equal(
            f1[Eye.LEFT][(0, 0)].data, f2[Eye.LEFT][(0, 0)].data
        )
