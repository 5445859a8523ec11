"""Randomized render-transport parity harness.

One frame, three transports — serial in-process, pooled with the
renderer pickled into each worker, pooled over a published shared
store — must agree to the byte on every (tile, eye) framebuffer.  Each
spec seeds its own layout, brush set, time window and eye selection,
so the suite sweeps wall shapes (including degenerate 1-pixel tiles,
chunky bezel-clipped mullions, and a 4-column wall whose cells round
to 129 px with the extra pixel on different sides on different tile
columns), brushed and unbrushed frames, and worker counts 1, 2 and 8.

A pooled batch shares one overlay dict across its own tiles while the
serial path shares one across the whole frame, so byte equality also
proves the overlay layers are keyed on everything they depend on.

The same specs drive the tile owners' lifetime: a renderer keeps its
owners from frame to frame (no process is spawned after the first
pooled frame, and an overlay-only tick builds no base in any owner),
replaces them when its dataset or store handle changes, respawns a
crashed one, and stops them when it is dropped.  After every step the
pooled frame equals a fresh serial render, byte for byte.
"""

from __future__ import annotations

import gc
import multiprocessing

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.parallel.tilerender import owner_pids, render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.render.raster import CellStyle
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.stereo.camera import Eye
from repro.store import SharedArenaStore
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory

BOTH = (Eye.LEFT, Eye.RIGHT)

#: (name, seed, wall kwargs, (grid cols, grid rows), n strokes,
#:  window fraction or None, eyes, max_workers)
SPECS = [
    (
        "two-panel-brushed", 0,
        dict(cols=2, rows=1, panel_px_width=64, panel_px_height=36),
        (4, 2), 2, None, BOTH, 2,
    ),
    (
        "single-panel-windowed", 1,
        dict(cols=1, rows=1, panel_px_width=64, panel_px_height=36),
        (3, 3), 1, 0.3, (Eye.LEFT,), 2,
    ),
    (
        "wide-wall-eight-workers", 2,
        dict(cols=3, rows=1, panel_px_width=48, panel_px_height=27),
        (5, 2), 2, 0.6, BOTH, 8,
    ),
    (
        "degenerate-one-px-tiles", 3,
        dict(cols=2, rows=1, panel_px_width=1, panel_px_height=24),
        (1, 2), 1, None, BOTH, 2,
    ),
    (
        "degenerate-one-px-rows", 4,
        dict(cols=1, rows=2, panel_px_width=32, panel_px_height=1),
        (2, 1), 1, None, (Eye.RIGHT,), 2,
    ),
    (
        "bezel-clipped-mullions", 5,
        dict(
            cols=2, rows=2, panel_px_width=40, panel_px_height=30,
            bezel=BezelSpec(left=0.02, right=0.02, top=0.015, bottom=0.015),
        ),
        (3, 3), 2, 0.5, BOTH, 2,
    ),
    (
        "single-worker-degenerates-to-serial", 6,
        dict(cols=2, rows=1, panel_px_width=40, panel_px_height=24),
        (2, 2), 1, None, BOTH, 1,
    ),
    (
        "unbrushed-frame", 7,
        dict(cols=2, rows=1, panel_px_width=48, panel_px_height=30),
        (4, 2), 0, None, BOTH, 2,
    ),
    (
        # BENCH_Q3's wall: float rounding makes some cells 129 px wide
        # with the extra pixel on the left on tile columns 1 and 3 and
        # on the right on column 2
        "q3-wall-four-columns", 8,
        dict(cols=4, rows=2, panel_px_width=256, panel_px_height=144),
        (8, 4), 2, None, BOTH, 2,
    ),
]


def _make_wall(**kw) -> DisplayWall:
    kw.setdefault("panel_width", 0.3)
    kw.setdefault("panel_height", 0.16875)
    kw.setdefault("bezel", BezelSpec())
    return DisplayWall(**kw)


def _seeded_canvas(seed: int, n_strokes: int, arena: Arena) -> BrushCanvas | None:
    """A deterministic random brush set inside the arena."""
    if n_strokes == 0:
        return None
    rng = np.random.default_rng(seed)
    canvas = BrushCanvas()
    r = arena.radius
    colors = ("red", "blue", "green")
    for i in range(n_strokes):
        cx, cy = rng.uniform(-0.6 * r, 0.6 * r, size=2)
        w, h = rng.uniform(0.15 * r, 0.5 * r, size=2)
        canvas.add(
            stroke_from_rect(
                (cx - w, cy - h), (cx + w, cy + h),
                rng.uniform(0.05 * r, 0.15 * r), colors[i % len(colors)],
            )
        )
    return canvas


def _assert_frames_equal(a, b, eyes):
    for eye in eyes:
        assert set(a.frames[eye]) == set(b.frames[eye])
        for key in a.frames[eye]:
            np.testing.assert_array_equal(
                a.frames[eye][key].data, b.frames[eye][key].data
            )


@pytest.mark.parametrize(
    "name,seed,wall_kw,grid_shape,n_strokes,window_frac,eyes,workers",
    SPECS,
    ids=[s[0] for s in SPECS],
)
def test_three_transports_bit_identical(
    study_dataset, name, seed, wall_kw, grid_shape, n_strokes,
    window_frac, eyes, workers,
):
    arena = Arena()
    viewport = Viewport(_make_wall(**wall_kw))
    grid = BezelAwareGrid(viewport, *grid_shape)
    renderer = WallRenderer(study_dataset, arena, viewport)
    assignment = assign_sequential(study_dataset, grid)
    canvas = _seeded_canvas(seed, n_strokes, arena)
    window = None if window_frac is None else TimeWindow.end(window_frac)

    # highlights evaluated once, shared by all three paths: any frame
    # difference is then attributable to the render path alone
    results = None
    if canvas is not None:
        engine = CoordinatedBrushingEngine(study_dataset)
        results = engine.query_all_colors(
            canvas, window=window, assignment=assignment
        )

    common = dict(eyes=eyes, canvas=canvas, results=results)
    serial = render_viewport_parallel(
        renderer, assignment, max_workers=0, **common
    )
    pickled = render_viewport_parallel(
        WallRenderer(study_dataset, arena, viewport), assignment,
        max_workers=workers, **common
    )
    with SharedArenaStore.publish(study_dataset) as store:
        stored = render_viewport_parallel(
            renderer, assignment, max_workers=workers, store=store, **common
        )

    _assert_frames_equal(serial, pickled, eyes)
    _assert_frames_equal(serial, stored, eyes)
    assert not pickled.degraded and not stored.degraded
    if workers > 1:
        assert stored.n_batches == min(workers, stored.n_jobs)
        assert set(stored.stage_seconds) == {
            "dispatch", "render", "shipback", "assemble",
        }


POOLED = [spec for spec in SPECS if spec[-1] > 1]
FAST = RetryPolicy(max_attempts=3, base_delay_s=0.0)


class Wall:
    """One spec's wall, a renderer with tile owners, and the state its
    frames are rendered from."""

    def __init__(self, dataset, seed, wall_kw, grid_shape, n_strokes, window_frac,
                 eyes, workers) -> None:
        self.arena = Arena()
        self.viewport = Viewport(_make_wall(**wall_kw))
        self.grid_shape = grid_shape
        self.renderer = WallRenderer(dataset, self.arena, self.viewport)
        self.assignment = assign_sequential(dataset, BezelAwareGrid(self.viewport, *grid_shape))
        self.canvas = _seeded_canvas(seed, n_strokes, self.arena) or BrushCanvas()
        self.window = None if window_frac is None else TimeWindow.end(window_frac)
        self.eyes = eyes
        self.workers = workers

    def results(self):
        if self.canvas.is_empty():
            return None
        return CoordinatedBrushingEngine(self.renderer.dataset).query_all_colors(
            self.canvas, window=self.window, assignment=self.assignment
        )

    def frame(self, **kw):
        """A pooled frame, checked byte for byte against a fresh serial
        render of the same state."""
        common = dict(eyes=self.eyes, canvas=self.canvas, results=self.results())
        pooled = render_viewport_parallel(
            self.renderer, self.assignment, max_workers=self.workers, **common, **kw
        )
        fresh = WallRenderer(self.renderer.dataset, self.arena, self.viewport,
                             self.renderer.projection, self.renderer.style)
        serial = render_viewport_parallel(fresh, self.assignment, max_workers=0, **common)
        _assert_frames_equal(pooled, serial, self.eyes)
        return pooled


def _stroke(arena: Arena, color: str, dx: float):
    r = arena.radius
    return stroke_from_rect(((dx - 0.3) * r, -0.4 * r), ((dx + 0.1) * r, 0.3 * r), 0.08 * r, color)


@pytest.mark.parametrize(
    "name,seed,wall_kw,grid_shape,n_strokes,window_frac,eyes,workers",
    POOLED,
    ids=[s[0] for s in POOLED],
)
def test_owners_live_across_frames(
    study_dataset, name, seed, wall_kw, grid_shape, n_strokes,
    window_frac, eyes, workers,
):
    """Later frames spawn no process and build no base on an
    overlay-only tick; measured ship-back stays inside the wait."""
    wall = Wall(study_dataset, seed, wall_kw, grid_shape, n_strokes, window_frac,
                eyes, workers)
    first = wall.frame()
    pids = owner_pids(wall.renderer)
    assert len(pids) == first.n_batches == min(workers, first.n_jobs)
    assert first.bases_built == first.n_jobs
    for dx in (0.0, 0.3):
        wall.canvas.clear("red")
        wall.canvas.add(_stroke(wall.arena, "red", dx))
        tick = wall.frame()
        assert owner_pids(wall.renderer) == pids
        assert tick.bases_built == 0
        stages = tick.stage_seconds
        wait = tick.elapsed_s - stages["dispatch"] - stages["assemble"]
        assert 0.0 <= stages["shipback"] <= wait


@pytest.mark.parametrize(
    "name,seed,wall_kw,grid_shape,n_strokes,window_frac,eyes,workers",
    POOLED,
    ids=[s[0] for s in POOLED],
)
def test_owner_frames_equal_fresh_after_every_change(
    study_dataset, name, seed, wall_kw, grid_shape, n_strokes,
    window_frac, eyes, workers,
):
    """One renderer through every kind of change: the owners rebind
    when the dataset and store handle change, and every frame equals a
    fresh serial render."""
    dataset = TrajectoryDataset(list(study_dataset))  # one step appends to it
    wall = Wall(dataset, seed, wall_kw, grid_shape, n_strokes, window_frac, eyes, workers)
    with SharedArenaStore.publish(dataset) as store:
        wall.frame(store=store)
        pids = owner_pids(wall.renderer)
        wall.canvas.add(_stroke(wall.arena, "blue", 0.2))
        assert wall.frame(store=store).bases_built == 0
        wall.window = TimeWindow.end(0.4)
        assert wall.frame(store=store).bases_built == 0
        wall.renderer.projection = wall.renderer.projection.with_controls(depth_offset=0.02)
        assert wall.frame(store=store).bases_built > 0
        wall.renderer.style = CellStyle(line_width=2.0, brush_alpha=0.4)
        assert wall.frame(store=store).bases_built > 0
        cols, rows = wall.grid_shape
        wall.assignment = assign_sequential(
            dataset, BezelAwareGrid(wall.viewport, cols + 1, rows))
        assert wall.frame(store=store).bases_built > 0
        assert owner_pids(wall.renderer) == pids
    first = dataset[0]
    dataset.append(Trajectory(first.positions[::-1], first.times, first.meta))
    with SharedArenaStore.publish(dataset) as store:
        rebound = wall.frame(store=store)
    assert not rebound.degraded  # the new handle attached
    assert not set(owner_pids(wall.renderer)) & set(pids)


def test_crashed_owner_is_respawned_and_renders_the_next_frame(study_dataset):
    """An owner crashed on frame N is respawned; frame N+1 is
    byte-identical and finds its bases retained again."""
    spec = next(s for s in SPECS if s[0] == "two-panel-brushed")
    wall = Wall(study_dataset, *spec[1:])
    wall.frame()
    pids = owner_pids(wall.renderer)
    crashed = wall.frame(
        fault_plan=FaultPlan(specs=(FaultSpec("crash", job=0, times=1),)),
        retry_policy=FAST,
    )
    assert crashed.degradation.by_kind().get("injected-crash") == 1
    respawned = owner_pids(wall.renderer)
    assert respawned[0] != pids[0] and respawned[1:] == pids[1:]
    after = wall.frame(fault_plan=FaultPlan())
    assert not after.degraded and after.bases_built == 0
    assert owner_pids(wall.renderer) == respawned


def test_dropping_the_renderer_stops_its_owners(study_dataset):
    spec = next(s for s in SPECS if s[0] == "two-panel-brushed")
    wall = Wall(study_dataset, *spec[1:])
    wall.frame()
    pids = set(owner_pids(wall.renderer))
    assert pids and pids <= {p.pid for p in multiprocessing.active_children()}
    del wall
    gc.collect()
    assert not pids & {p.pid for p in multiprocessing.active_children()}
