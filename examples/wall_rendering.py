#!/usr/bin/env python
"""Render the wall: Fig. 3's frame, stereo pair, and anaglyph.

Builds the queried application state (groups + west brush + end
window), renders every tile of the 2/3-surface viewport for both eyes
— serially and on tile-owner processes, the way a cluster-driven wall
distributes tiles — and writes PPM images you can open in any viewer.

Run:  python examples/wall_rendering.py [--outdir frames] [--workers 4]
"""

import argparse
import time
from pathlib import Path

from repro import TimeWindow, TrajectoryExplorer, generate_study_dataset
from repro.core.brush import stroke_from_rect
from repro.parallel.pool import default_workers
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.compose import anaglyph, compose_wall, stereo_pair_side_by_side
from repro.render.image_io import write_ppm
from repro.stereo.camera import Eye


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="frames", help="output directory")
    # at least 2 tile owners, so a 2-CPU host (1 default worker) still
    # renders pooled; --workers 1 renders serially only
    parser.add_argument("--workers", type=int, default=max(2, min(4, default_workers())))
    parser.add_argument("--layout", default="2", choices=("1", "2", "3"))
    parser.add_argument("--scale", type=float, default=0.25,
                        help="output downscale factor")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(exist_ok=True)

    # application state: Fig. 3 groups + the Fig. 5 query
    dataset = generate_study_dataset()
    app = TrajectoryExplorer(dataset, layout_key=args.layout)
    app.group_by_capture_zone()
    r = app.arena.radius
    app.brush(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r),
                               0.12 * r, "red"))
    app.set_time_window(TimeWindow.end(0.15))
    result = app.query("red")
    print("query:", result.summary())

    renderer = app.renderer()
    assignment = app.session.assignment
    canvas = app.session.canvas
    results = {"red": result}

    # serial vs parallel tile rendering -------------------------------
    serial = render_viewport_parallel(
        renderer, assignment, canvas=canvas, results=results, max_workers=0
    )
    print(f"serial render:   {serial.elapsed_s:6.2f} s "
          f"({serial.n_jobs} tile-eye jobs)")
    if args.workers > 1:
        # the renderer's tile owners start here and, like the serial
        # frame, draw every base cold
        parallel = render_viewport_parallel(
            renderer, assignment, canvas=canvas, results=results,
            max_workers=args.workers,
        )
        print(f"parallel render: {parallel.elapsed_s:6.2f} s "
              f"with {args.workers} tile owners "
              f"({serial.elapsed_s / parallel.elapsed_s:.2f}x)")
        frames = parallel.frames
    else:
        frames = serial.frames

    # compose & write --------------------------------------------------
    wall = app.viewport.wall
    t0 = time.perf_counter()
    left = compose_wall(wall, frames[Eye.LEFT], scale=args.scale)
    right = compose_wall(wall, frames[Eye.RIGHT], scale=args.scale)
    write_ppm(left, outdir / "wall_left.ppm")
    write_ppm(stereo_pair_side_by_side(left, right), outdir / "wall_pair.ppm")
    write_ppm(anaglyph(left, right), outdir / "wall_anaglyph.ppm")
    print(f"composed + wrote 3 frames in {time.perf_counter() - t0:.2f} s:")
    for name in ("wall_left.ppm", "wall_pair.ppm", "wall_anaglyph.ppm"):
        print(f"  {outdir / name}")


if __name__ == "__main__":
    main()
