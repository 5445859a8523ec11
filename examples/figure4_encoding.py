#!/usr/bin/env python
"""Figure 4 close-up: one trajectory as a stereoscopic space-time cube.

Renders a single ant trajectory at panel resolution — left/right eye
pair and a red-cyan anaglyph — with an exaggerated time scale so the
stereo shear is plainly visible, plus a depth-exaggeration sweep
showing the ergonomic-slider effect.  Output is PPM (openable anywhere,
or view the anaglyph with paper 3D glasses).

Run:  python examples/figure4_encoding.py [--outdir frames]
"""

import argparse
from pathlib import Path

import numpy as np

from repro import generate_study_dataset
from repro.display.bezel import BezelSpec
from repro.display.coords import CoordinateMapper
from repro.display.wall import DisplayWall
from repro.render.compose import anaglyph, stereo_pair_side_by_side
from repro.render.framebuffer import Framebuffer
from repro.render.font import draw_text
from repro.render.image_io import write_ppm
from repro.render.raster import CellRenderer, CellStyle
from repro.stereo.camera import Eye
from repro.stereo.comfort import ComfortModel
from repro.stereo.projection import SpaceTimeProjection
from repro.synth.arena import Arena


def pick_interesting(dataset):
    """A long, windy trajectory — the kind Fig. 4 illustrates."""
    from repro.trajectory.metrics import sinuosity

    candidates = [t for t in dataset if t.duration > 100.0]
    return max(candidates, key=sinuosity)


def render_eye(traj, arena, projection, eye, px=540, label=True):
    """One eye's view of the trajectory on a single virtual panel."""
    panel_w_m = 0.45
    wall = DisplayWall(
        cols=1, rows=1,
        panel_width=panel_w_m, panel_height=panel_w_m,
        panel_px_width=px, panel_px_height=px,
        bezel=BezelSpec(0, 0, 0, 0),
    )
    tile = wall.tile(0, 0)
    fb = Framebuffer(px, px, background=(0.06, 0.06, 0.08))
    cell_rect = (0.0, 0.0, panel_w_m, panel_w_m)
    mapper = CoordinateMapper(arena, cell_rect)
    style = CellStyle(line_width=2.2, step_px=0.5)
    renderer = CellRenderer(tile, projection, style)
    renderer.draw_arena_rim(fb, mapper)
    placement = renderer.place(mapper)
    renderer.draw_trajectory(
        fb, traj, placement, renderer.cell_polyline(traj, mapper, eye, placement)
    )
    if label:
        text = "LEFT EYE" if eye is Eye.LEFT else "RIGHT EYE"
        draw_text(fb, 8, 8, text, scale=2, alpha=0.8)
    return fb


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="frames")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(exist_ok=True)

    arena = Arena()
    dataset = generate_study_dataset()
    traj = pick_interesting(dataset)
    print(f"trajectory #{traj.traj_id}: {traj.duration:.0f} s, "
          f"{traj.n_samples} samples, zone {traj.meta.capture_zone}")

    # exaggerated time scale so the shear shows at image scale
    projection = SpaceTimeProjection(time_scale=0.004)
    comfort = ComfortModel()
    z0, z1 = projection.depth_range(traj)
    report = comfort.assess(z0, z1)
    print(f"depth range {z0 * 100:.0f}-{z1 * 100:.0f} cm; "
          f"max disparity {report.max_disparity_deg:.2f} deg "
          f"({'comfortable' if report.comfortable else 'UNCOMFORTABLE'})")

    left = render_eye(traj, arena, projection, Eye.LEFT)
    right = render_eye(traj, arena, projection, Eye.RIGHT)
    pair = stereo_pair_side_by_side(left.data, right.data)
    ana = anaglyph(
        render_eye(traj, arena, projection, Eye.LEFT, label=False).data,
        render_eye(traj, arena, projection, Eye.RIGHT, label=False).data,
    )
    write_ppm(pair, outdir / "fig4_pair.ppm")
    write_ppm(ana, outdir / "fig4_anaglyph.ppm")
    print(f"wrote {outdir / 'fig4_pair.ppm'} and {outdir / 'fig4_anaglyph.ppm'}")

    # the exaggeration slider: same trajectory at three time scales
    sweeps = []
    for ts in (0.001, 0.004, 0.012):
        proj = SpaceTimeProjection(time_scale=ts)
        fb = render_eye(traj, arena, proj, Eye.LEFT, px=360)
        draw_text(fb, 8, 336, f"{ts * 1000:.0f} MM/S", scale=2, alpha=0.9)
        sweeps.append(fb.data)
    strip = np.concatenate(sweeps, axis=1)
    write_ppm(strip, outdir / "fig4_exaggeration_sweep.ppm")
    print(f"wrote {outdir / 'fig4_exaggeration_sweep.ppm'}")


if __name__ == "__main__":
    main()
