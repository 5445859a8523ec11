"""Randomized render-transport parity harness.

One frame, three transports — serial in-process, pooled with the
renderer pickled into each worker, pooled over a published shared
store — must agree to the byte on every (tile, eye) framebuffer.  Each
spec seeds its own layout, brush set, time window and eye selection,
so the suite sweeps wall shapes (including degenerate 1-pixel tiles,
chunky bezel-clipped mullions, and a 4-column wall whose cells round
to 129 px with the extra pixel on different sides on different tile
columns), brushed and unbrushed frames, and worker counts 1, 2 and 8.

A pooled batch shares one brush-footprint cache across its tiles while
the serial path keeps one per tile, so byte equality also proves the
footprint cache is keyed on everything the coverage depends on.
"""

from __future__ import annotations

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
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.stereo.camera import Eye
from repro.store import SharedArenaStore
from repro.synth.arena import Arena

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
    # a fresh renderer: forked workers would inherit the bases the
    # serial frame left in `renderer`, and this arm must render cold
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
