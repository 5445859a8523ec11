"""Retained frames equal fresh ones, byte for byte.

:class:`~repro.render.pipeline.WallRenderer` keeps the base layer of
each (tile, eye) of its last job list and redraws only the overlay when
a job's :meth:`~repro.render.pipeline.WallRenderer.base_key` is
unchanged.  The oracle: drive one long-lived renderer through every
kind of change a session makes, and after each step compare its frame
with the frame of a new renderer given the same state.
The inputs are the render-transport parity specs.

Each step also pins whether it may reuse bases: a change that only
touches the overlay (stroke, results, window, a subset of the eyes)
draws no background, rim or trajectory at all, and every other change
draws them.  The cache always holds exactly the last job list's keys.
Overlay layers are retained the same way, and the retained overlay
holds exactly the layers a fresh renderer's frame uses: a tick that
replaces one color's stroke rasterizes only that color's footprints
and splats only the highlights whose mask changed.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.app import TrajectoryExplorer
from repro.core.brush import BrushStroke, stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.display.coords import CoordinateMapper
from repro.display.viewport import Viewport
from repro.layout.cells import assign_groups_to_cells, assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.layout.groups import TrajectoryGroups
from repro.render import raster
from repro.render.framebuffer import Framebuffer
from repro.render.pipeline import WallRenderer
from repro.render.raster import CellRenderer, CellStyle
from repro.stereo.camera import Eye
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory
from tests.parallel.test_frame_parity import SPECS, _make_wall, _seeded_canvas

BASE_LAYERS = ("draw_background", "draw_arena_rim", "draw_trajectory")


@pytest.fixture()
def base_draws(monkeypatch) -> Counter:
    """Calls of each base-layer draw method, by name."""
    counts: Counter = Counter()
    for name in BASE_LAYERS:
        original = getattr(CellRenderer, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CellRenderer, name, spy)
    return counts


def _fresh(renderer: WallRenderer) -> WallRenderer:
    return WallRenderer(
        renderer.dataset, renderer.arena, renderer.viewport,
        renderer.projection, renderer.style,
    )


def _assert_same_frames(got, want, label: str) -> None:
    assert set(got) == set(want), label
    for eye in want:
        assert set(got[eye]) == set(want[eye]), label
        for key, fb in want[eye].items():
            assert np.array_equal(got[eye][key].data, fb.data), f"{label}: {eye} {key}"


class Scene:
    """The state a frame is rendered from, changed one field at a time."""

    def __init__(self, renderer: WallRenderer, assignment, canvas, window, eyes) -> None:
        self.renderer = renderer
        self.assignment = assignment
        self.canvas = canvas
        self.window = window
        self.eyes = eyes
        self.engines: dict[TrajectoryDataset, CoordinatedBrushingEngine] = {}

    def render(self, renderer: WallRenderer, results):
        return renderer.render_viewport(
            self.assignment, eyes=self.eyes, canvas=self.canvas, results=results
        )

    def results(self):
        if self.canvas.is_empty():
            return None
        dataset = self.renderer.dataset
        if dataset not in self.engines:  # by identity; epochs differ by append
            self.engines[dataset] = CoordinatedBrushingEngine(dataset)
        return self.engines[dataset].query_all_colors(
            self.canvas, window=self.window, assignment=self.assignment
        )


@pytest.mark.parametrize(
    "name,seed,wall_kw,grid_shape,n_strokes,window_frac,eyes,workers",
    SPECS,
    ids=[s[0] for s in SPECS],
)
def test_retained_frame_equals_fresh_after_every_change(
    study_dataset, base_draws, name, seed, wall_kw, grid_shape, n_strokes,
    window_frac, eyes, workers,
):
    arena = Arena()
    viewport = Viewport(_make_wall(**wall_kw))
    # a private dataset: one step appends to it
    dataset = TrajectoryDataset(list(study_dataset))
    renderer = WallRenderer(dataset, arena, viewport)
    grid_a = BezelAwareGrid(viewport, *grid_shape)
    # the Fig. 3 scheme needs five columns; B always differs from A
    grid_b = BezelAwareGrid(viewport, max(5, grid_shape[0] + 1), grid_shape[1])
    scene = Scene(
        renderer,
        assign_sequential(dataset, grid_a),
        _seeded_canvas(seed, n_strokes, arena) or BrushCanvas(),
        None if window_frac is None else TimeWindow.end(window_frac),
        eyes,
    )

    def step(label: str, *, warm: bool) -> None:
        results = scene.results()
        base_draws.clear()
        got = scene.render(renderer, results)
        drawn = sum(base_draws.values())
        fresh = _fresh(renderer)
        want = scene.render(fresh, results)
        _assert_same_frames(got, want, label)
        jobs = renderer.make_jobs(scene.assignment, scene.eyes)
        assert set(renderer._bases) == {renderer.base_key(job) for job in jobs}, label
        # the retained overlay holds exactly the layers this frame used
        assert set(renderer._overlay) == set(fresh._overlay), label
        if warm:
            assert drawn == 0, f"{label}: a warm frame drew {dict(base_draws)}"
        else:
            assert drawn > 0, f"{label}: a changed base was served from the cache"

    r = arena.radius
    step("first frame", warm=False)
    step("same state again", warm=True)
    scene.canvas.add(stroke_from_rect((-0.5 * r, -0.4 * r), (0.1 * r, 0.2 * r), 0.08 * r, "red"))
    step("stroke added", warm=True)
    scene.canvas.clear("red")
    step("stroke erased", warm=True)
    scene.canvas.add(stroke_from_rect((0.0, -0.5 * r), (0.4 * r, 0.5 * r), 0.1 * r, "blue"))
    scene.window = TimeWindow.end(0.4)
    step("results and window", warm=True)
    scene.canvas.clear("blue")
    scene.canvas.add(stroke_from_rect((-0.4 * r, -0.5 * r), (0.0, 0.3 * r), 0.1 * r, "blue"))
    step("results of one color only", warm=True)
    scene.window = TimeWindow.end(0.7)
    step("a window change", warm=True)
    scene.assignment = assign_sequential(dataset, grid_b)
    step("layout switch", warm=False)
    scene.assignment = assign_groups_to_cells(
        dataset, grid_b, TrajectoryGroups.fig3_scheme(grid_b)
    )
    step("Fig. 3 groups", warm=False)
    first = dataset[0]
    dataset.append(Trajectory(first.positions[::-1], first.times, first.meta))
    step("dataset append", warm=False)
    swapped = TrajectoryDataset(list(reversed(list(dataset))))
    assert swapped.epoch == dataset.epoch and swapped is not dataset
    renderer.dataset = swapped
    step("dataset swapped at the same epoch", warm=False)
    renderer.projection = renderer.projection.with_controls(depth_offset=0.02)
    step("projection controls", warm=False)
    # brush_alpha tints every footprint layer: none may outlive it
    renderer.style = CellStyle(line_width=2.0, brush_alpha=0.4)
    step("style", warm=False)
    one_eye = (Eye.LEFT,)
    warm = Eye.LEFT in scene.eyes
    scene.eyes = one_eye
    step("one-eye frame", warm=warm)
    scene.eyes = eyes
    for label, grid in (("A", grid_a), ("B", grid_b), ("A again", grid_a)):
        scene.assignment = assign_sequential(renderer.dataset, grid)
        step(f"layout {label}", warm=False)


def test_only_the_changed_colors_footprints_are_rasterized(study_dataset, monkeypatch):
    viewport = Viewport(_make_wall(cols=2, rows=1, panel_px_width=64, panel_px_height=36))
    arena = Arena()
    renderer = WallRenderer(study_dataset, arena, viewport)
    assignment = assign_sequential(study_dataset, BezelAwareGrid(viewport, 4, 2))
    canvas = _seeded_canvas(0, 3, arena)  # one stroke each: red, blue, green
    calls: list[tuple[object, bytes]] = []
    original = CellRenderer.brush_footprint_coverage

    def spy(self, geometry, centers, radii, **kwargs):
        calls.append((geometry, np.asarray(centers).tobytes()))
        return original(self, geometry, centers, radii, **kwargs)

    monkeypatch.setattr(CellRenderer, "brush_footprint_coverage", spy)
    renderer.render_viewport(assignment, canvas=canvas)
    geometries = {geometry for geometry, _ in calls}
    assert len(calls) == 3 * len(geometries)
    calls.clear()
    renderer.render_viewport(assignment, canvas=canvas)
    assert not calls  # nothing changed: every map is retained

    # the same stamps and radius, moved: only the centers' bytes differ
    [red] = canvas.strokes("red")
    canvas.clear("red")
    canvas.add(BrushStroke(red.centers + [0.05 * arena.radius, 0.0], red.radius, "red"))
    got = renderer.render_viewport(assignment, canvas=canvas)
    red = canvas.stamps_of("red")[0].tobytes()
    assert [stamps for _, stamps in calls] == [red] * len(geometries)
    assert {geometry for geometry, _ in calls} == geometries
    _assert_same_frames(
        got, _fresh(renderer).render_viewport(assignment, canvas=canvas),
        "one color's stroke replaced",
    )


def _unshared_frame(renderer: WallRenderer, job, canvas, results) -> Framebuffer:
    """``job``'s frame with every overlay layer drawn afresh, in the
    pipeline's order, from its retained base: nothing shared or reused."""
    cell = CellRenderer(job.tile, renderer.projection, renderer.style)
    fb = Framebuffer.from_pixels(renderer._bases[renderer.base_key(job)])
    packed = renderer.dataset.packed()
    for rect, traj in zip(job.cell_rects, job.cell_traj):
        if traj < 0:
            continue
        mapper = CoordinateMapper(renderer.arena, tuple(float(v) for v in rect))
        placement = cell.place(mapper)
        for color in canvas.colors():
            centers, radii = canvas.stamps_of(color)
            cell.draw_brush_footprint(fb, placement, centers, radii, color)
        for color, res in results.items():
            traj_obj = renderer.dataset[traj]
            cell.draw_highlights(
                fb, traj_obj, res.segment_mask[packed.rows_of(traj)], color, placement,
                cell.cell_polyline(traj_obj, mapper, job.eye, placement),
            )
    return fb


def test_only_the_changed_colors_highlights_are_splatted(study_dataset, monkeypatch):
    viewport = Viewport(_make_wall(cols=2, rows=1, panel_px_width=64, panel_px_height=36))
    arena = Arena()
    renderer = WallRenderer(study_dataset, arena, viewport)
    assignment = assign_sequential(study_dataset, BezelAwareGrid(viewport, 4, 2))
    engine = CoordinatedBrushingEngine(study_dataset)
    canvas = _seeded_canvas(0, 3, arena)  # one stroke each: red, blue, green
    results = engine.query_all_colors(canvas, assignment=assignment)
    jobs = renderer.make_jobs(assignment)
    renderer.render_jobs(jobs, canvas=canvas, results=results)

    drawn: list[tuple[int, bytes, str]] = []
    splats: list[int] = []
    draw, splat = CellRenderer.draw_highlights, raster.splat_polylines

    def spy_draw(self, fb, traj, seg_mask, color, *args, **kwargs):
        drawn.append((id(traj), np.asarray(seg_mask).tobytes(), color))
        return draw(self, fb, traj, seg_mask, color, *args, **kwargs)

    monkeypatch.setattr(CellRenderer, "draw_highlights", spy_draw)
    monkeypatch.setattr(
        raster, "splat_polylines", lambda *a, **kw: splats.append(1) or splat(*a, **kw)
    )
    renderer.render_jobs(jobs, canvas=canvas, results=results)
    assert not drawn and not splats  # nothing changed: every layer is retained

    # replace blue's stroke; only blue is re-queried
    canvas.clear("blue")
    r = arena.radius
    canvas.add(stroke_from_rect((-0.2 * r, -0.6 * r), (0.5 * r, 0.1 * r), 0.1 * r, "blue"))
    new = {**results, "blue": engine.query(canvas, "blue", assignment=assignment)}
    packed = study_dataset.packed()
    want: list[tuple[int, bytes, str]] = []
    for job in jobs:
        for traj in job.cell_traj[job.cell_traj >= 0]:
            rows = packed.rows_of(traj)
            mask = new["blue"].segment_mask[rows]
            kept = {res.segment_mask[rows].tobytes() for res in (*results.values(), *new.values())
                    if res is not new["blue"]}
            if mask.any() and mask.tobytes() not in kept:
                want.append((id(study_dataset[traj]), mask.tobytes(), "blue"))
    got = renderer.render_jobs(jobs, canvas=canvas, results=new)
    assert want and sorted(drawn) == sorted(want)
    assert len(splats) == len(want)  # one splat per changed (cell, eye), none other
    fresh = _fresh(renderer).render_jobs(jobs, canvas=canvas, results=new)
    for job, (fb, _), (ref, _) in zip(jobs, got, fresh, strict=True):
        assert np.array_equal(fb.data, ref.data), job
        assert np.array_equal(fb.data, _unshared_frame(renderer, job, canvas, new).data), job

    # two colors with identical strokes: one layer per (cell, eye) mask
    canvas.clear("green")
    [blue] = canvas.strokes("blue")
    canvas.add(BrushStroke(blue.centers, blue.radius, "green"))
    new["green"] = engine.query(canvas, "green", assignment=assignment)
    drawn.clear()
    got = _fresh(renderer).render_jobs(jobs, canvas=canvas, results=new)
    assert not [d for d in drawn if d[2] == "green"]  # green reuses blue's layers
    assert {d for d in drawn if d[2] == "blue"}
    for job, (fb, _) in zip(jobs, got, strict=True):
        assert np.array_equal(fb.data, _unshared_frame(renderer, job, canvas, new).data), job


def test_renderer_pickles_without_its_bases(study_dataset):
    viewport = Viewport(_make_wall(cols=2, rows=1, panel_px_width=64, panel_px_height=36))
    renderer = WallRenderer(study_dataset, Arena(), viewport)
    size = len(pickle.dumps(renderer))
    assignment = assign_sequential(study_dataset, BezelAwareGrid(viewport, 4, 2))
    canvas = _seeded_canvas(0, 2, renderer.arena)
    results = CoordinatedBrushingEngine(study_dataset).query_all_colors(
        canvas, assignment=assignment
    )
    renderer.render_viewport(assignment, canvas=canvas, results=results)
    overlay_bytes = sum(layer.nbytes for layer in renderer._overlay.values())
    assert overlay_bytes > 0
    # 2 tiles x 2 eyes of float32 bases, plus the footprint and highlight layers
    assert renderer.retained_bytes == 4 * 64 * 36 * 3 * 4 + overlay_bytes
    assert len(pickle.dumps(renderer)) == size
    copy = pickle.loads(pickle.dumps(renderer))
    assert copy.retained_bytes == 0 and not copy._overlay


def test_bases_are_read_only_and_frames_are_the_callers(study_dataset):
    viewport = Viewport(_make_wall(cols=2, rows=1, panel_px_width=64, panel_px_height=36))
    renderer = WallRenderer(study_dataset, Arena(), viewport)
    assignment = assign_sequential(study_dataset, BezelAwareGrid(viewport, 4, 2))
    first = renderer.render_viewport(assignment)
    bases = list(renderer._bases.values())
    assert bases and not any(base.flags.writeable for base in bases)
    second = renderer.render_viewport(assignment)
    for eye, tiles in second.items():
        for key, fb in tiles.items():
            assert fb.data.flags.writeable
            assert not any(np.shares_memory(fb.data, base) for base in bases)
            fb.data[...] = 0.0  # the caller may scribble on what it got
            assert not np.array_equal(fb.data, first[eye][key].data)
    third = renderer.render_viewport(assignment)
    _assert_same_frames(third, first, "after the caller overwrote its frame")


def test_explorer_frames_equal_a_fresh_explorers(study_dataset):
    viewport = Viewport(_make_wall(cols=2, rows=1, panel_px_width=96, panel_px_height=54))
    app = TrajectoryExplorer(study_dataset, viewport=viewport)
    r = app.arena.radius
    stroke = stroke_from_rect((-0.6 * r, -0.3 * r), (0.2 * r, 0.4 * r), 0.1 * r, "red")

    def fresh_frame(*, brushed: bool, depth: float | None, layout: str | None):
        other = TrajectoryExplorer(service=app.service, viewport=viewport)
        if brushed:
            other.brush(stroke)
            other.query("red")
        if depth is not None:
            other.controls.set_depth(depth)
        if layout is not None:
            other.switch_layout(layout)
        return other.render_frame(mode="pair")

    app.render_frame(mode="pair")
    renderer = app.renderer()
    app.brush(stroke)
    app.query("red")
    assert np.array_equal(
        app.render_frame(mode="pair"), fresh_frame(brushed=True, depth=None, layout=None)
    )
    app.controls.set_depth(app.controls.depth_offset + 0.01)
    depth = app.controls.depth_offset
    assert np.array_equal(
        app.render_frame(mode="pair"), fresh_frame(brushed=True, depth=depth, layout=None)
    )
    app.switch_layout("1")
    assert np.array_equal(
        app.render_frame(mode="pair"), fresh_frame(brushed=True, depth=depth, layout="1")
    )
    assert app.renderer() is renderer  # one renderer for the explorer's dataset
