"""Deterministic NumPy software renderer.

Replaces the wall's OpenGL pipeline with an in-memory rasterizer that
exercises the same code paths the paper's application drove: per-eye
sheared-orthographic projection of space-time cubes, per-tile
framebuffers (so tiles render independently — the unit of parallelism
on a real cluster-driven wall and in :mod:`repro.parallel`), group
background colors, brush-highlight overlays, and stereo-pair/anaglyph
composition.

Every (tile, eye) job renders in two passes: a base (cell backgrounds,
arena rims, labels and trajectories) and an overlay (brush footprints
and highlights) over a copy of it.  :class:`WallRenderer` retains its
last job list's bases and overlay layers, keyed by value on everything
they read, so an interaction that changes only the brush, the results
or the time window redraws only the overlay, and re-rasterizes only
the footprints and highlights whose inputs changed.

Rendering uses arc-length point splatting with bilinear coverage: a
cell's polyline is projected once per eye, resampled at sub-pixel
spacing, and every (kernel offset, bilinear tap, sample) contribution
is accumulated with one ``np.bincount`` per channel — one vectorized
pass per polyline, no per-segment Python loop.  Each coverage layer is
alpha-composited only over the bounding box of its nonzero pixels, and
overlay layers are kept composite-ready
(:class:`~repro.render.framebuffer.CoverageLayer`) and shared across a
frame's job list.
"""

from repro.render.color import Color, HIGHLIGHT_COLORS, named_color, time_gradient
from repro.render.framebuffer import Framebuffer
from repro.render.lines import splat_points, splat_polylines
from repro.render.raster import CellRenderer
from repro.render.compose import anaglyph, compose_wall, stereo_pair_side_by_side
from repro.render.pipeline import RenderJob, WallRenderer
from repro.render.image_io import read_ppm, write_npz, write_ppm

__all__ = [
    "Color",
    "HIGHLIGHT_COLORS",
    "named_color",
    "time_gradient",
    "Framebuffer",
    "splat_points",
    "splat_polylines",
    "CellRenderer",
    "compose_wall",
    "anaglyph",
    "stereo_pair_side_by_side",
    "WallRenderer",
    "RenderJob",
    "write_ppm",
    "read_ppm",
    "write_npz",
]
