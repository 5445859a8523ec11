"""E11 — wall-render throughput (the substrate behind Fig. 3's frame).

Times the software rasterizer on the paper's full setup: the 36x12
layout with Fig. 3 grouping, brush footprint and query highlights, per
tile per eye — serial vs. process-parallel over the viewport's 12
panels (the unit of distribution on a real cluster-driven wall).

Four frames are reported, each compared like with like:

* **cold serial** — a fresh renderer, so every (tile, eye) draws its
  base layer (backgrounds, rims, labels, trajectories) and then the
  overlay (footprints, highlights);
* **retained brushed** — the same renderer after one brush stroke is
  replaced: every base is reused and only the overlay is redrawn,
  which is what an analyst's brush tick costs (best of 3 strokes);
* **cold pooled** — a fresh renderer again, whose first pooled frame
  brings up its tile owners and renders every base in them;
* **retained pooled** — that renderer after the same stroke
  replacements: each tile owner reuses its tiles' bases (best of 3).

The pool has at least 2 owners, so the pooled arms exercise the pool
on a 2-CPU host too.  The frame has one color, so a new stroke changes
the highlight mask of almost every brushed cell: the retained frames
reuse footprint layers but hardly any highlight layer.  Also reported: the retained bytes, as base
layers and overlay layers, and the host.  Both retained frames are
checked byte for byte against a cold render of the same state.
"""

import hashlib

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.layout.cells import assign_groups_to_cells
from repro.layout.configs import preset
from repro.layout.groups import TrajectoryGroups
from repro.parallel.pool import default_workers
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.stereo.camera import Eye
from repro.synth.arena import Arena

BOTH = (Eye.LEFT, Eye.RIGHT)
WINDOW = TimeWindow.end(0.15)


def _canvas(arena, shift: float) -> BrushCanvas:
    """The west-edge red stroke, moved ``shift`` arena radii east."""
    r = arena.radius
    canvas = BrushCanvas()
    canvas.add(stroke_from_rect(
        ((-1 + shift) * r, -0.6 * r), ((-0.7 + shift) * r, 0.6 * r), 0.12 * r, "red"
    ))
    return canvas


@pytest.fixture(scope="module")
def setup(full_dataset, viewport, arena):
    grid = preset("3").build(viewport)
    groups = TrajectoryGroups.fig3_scheme(grid)
    assignment = assign_groups_to_cells(full_dataset, grid, groups)
    engine = CoordinatedBrushingEngine(full_dataset)

    def brushed(shift: float):
        canvas = _canvas(arena, shift)
        return canvas, {"red": engine.query(canvas, "red", window=WINDOW)}

    def renderer() -> WallRenderer:
        """A fresh renderer: no retained bases, so its first frame is cold."""
        return WallRenderer(full_dataset, Arena(), viewport)

    return renderer, assignment, brushed


def _same_frames(a, b) -> bool:
    return all(
        np.array_equal(a.frames[eye][key].data, b.frames[eye][key].data)
        for eye in BOTH for key in a.frames[eye]
    )


def _digest(report) -> str:
    """SHA-256 over every (eye, tile) framebuffer, so a ~300 MB stereo
    frame need not be kept to be compared."""
    h = hashlib.sha256()
    for eye in BOTH:
        for key in sorted(report.frames[eye]):
            h.update(report.frames[eye][key].data.tobytes())
    return h.hexdigest()


def test_e11_render_throughput(setup, viewport, host, report_sink, benchmark):
    renderer, assignment, brushed = setup
    workers = max(2, min(4, default_workers()))
    canvas, results = brushed(0.0)

    warm = renderer()
    serial = benchmark.pedantic(
        render_viewport_parallel,
        args=(warm, assignment),
        kwargs=dict(eyes=BOTH, canvas=canvas, results=results, max_workers=0),
        rounds=1,
        iterations=1,
    )
    pooled = renderer()
    parallel = render_viewport_parallel(
        pooled, assignment, eyes=BOTH,
        canvas=canvas, results=results, max_workers=workers,
    )
    assert _same_frames(serial, parallel)
    serial_s, parallel_s, n_jobs = serial.elapsed_s, parallel.elapsed_s, serial.n_jobs
    assert parallel.workers == workers
    del serial, parallel  # a stereo paper frame is ~300 MB of float32

    # brush ticks: replace the stroke, re-query, re-render on the warm
    # renderer and on the warm tile owners
    retained_s, pooled_retained_s = float("inf"), float("inf")
    for shift in (0.1, 0.2, 0.3):
        canvas, results = brushed(shift)
        tick = render_viewport_parallel(
            warm, assignment, eyes=BOTH, canvas=canvas, results=results, max_workers=0,
        )
        retained_s, tick_digest = min(retained_s, tick.elapsed_s), _digest(tick)
        del tick
        tick = render_viewport_parallel(
            pooled, assignment, eyes=BOTH, canvas=canvas, results=results,
            max_workers=workers,
        )
        assert tick.bases_built == 0, "a tile owner lost its bases"
        pooled_retained_s, pooled_digest = min(pooled_retained_s, tick.elapsed_s), _digest(tick)
        del tick
    cold = render_viewport_parallel(
        renderer(), assignment, eyes=BOTH, canvas=canvas, results=results, max_workers=0,
    )
    assert tick_digest == _digest(cold), "retained frame differs from a cold render"
    assert pooled_digest == _digest(cold), "retained pooled frame differs from a cold render"
    del cold
    base_mb = sum(base.nbytes for base in warm._bases.values()) / 1e6
    overlay_mb = sum(layer.nbytes for layer in warm._overlay.values()) / 1e6
    n_layers = len(warm._overlay)

    stereo_mpx = 2 * viewport.megapixels
    speedup = serial_s / parallel_s
    report_sink(
        "E11",
        "wall render throughput (Fig. 3 frame substrate)",
        [
            host.line,
            f"frame: 432 cells, stereo, brush + highlights, "
            f"{viewport.px_width}x{viewport.px_height} px per eye",
            f"serial, cold:        {serial_s:6.2f} s "
            f"({stereo_mpx / serial_s:5.2f} Mpx/s, {n_jobs} tile-eye jobs, fresh renderer)",
            f"serial, retained:    {retained_s:6.2f} s "
            f"({stereo_mpx / retained_s:5.2f} Mpx/s, best of 3 stroke "
            f"replacements; {serial_s / retained_s:.2f}x faster than cold)",
            f"parallel, cold:      {parallel_s:6.2f} s with {workers} tile owners "
            f"({stereo_mpx / parallel_s:5.2f} Mpx/s, fresh renderer, owner bring-up included)",
            f"parallel, retained:  {pooled_retained_s:6.2f} s with {workers} tile owners "
            f"({stereo_mpx / pooled_retained_s:5.2f} Mpx/s, same 3 stroke replacements; "
            f"{retained_s / pooled_retained_s:.2f}x vs serial retained)",
            f"speedup (parallel vs serial, both cold): {speedup:.2f}x "
            f"({'passes' if speedup > 1.2 else 'fails'} the > 1.2x check)",
            f"retained bases: {n_jobs} (tile, eye) images, {base_mb:.1f} MB "
            "of float32 pixels",
            f"retained overlay: {n_layers} footprint and highlight layers, "
            f"{overlay_mb:.2f} MB",
            "(a brush tick reuses every base layer and redraws only the",
            " overlay; with one color a new stroke changes the highlight",
            " mask of almost every brushed cell, so it reuses footprint",
            " layers but hardly any highlight layer.  Both retained frames",
            " equal a cold render byte for byte.  Tiles are share-nothing",
            " render units, as on the real cluster-driven wall: each tile",
            " owner keeps its tiles' bases from frame to frame and ships",
            " back only their pixels)",
        ],
    )

    # expected shape: parallel never slower than ~serial, and with >= 2
    # workers it should show a real speedup on this embarrassingly
    # parallel workload
    if workers >= 2:
        assert speedup > 1.2


def test_e11_single_tile_bench(setup, benchmark):
    """pytest-benchmark timing for one cold tile/eye job (the unit of
    work): a fresh renderer retains nothing, and a lone ``render_job``
    keeps no base."""
    renderer, assignment, brushed = setup
    canvas, results = brushed(0.0)
    fresh = renderer()
    job = fresh.make_jobs(assignment, (Eye.LEFT,))[0]
    fb = benchmark(fresh.render_job, job, canvas=canvas, results=results)
    assert fb.data.max() > 0
