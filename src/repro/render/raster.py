"""Cell rasterization.

A :class:`CellRenderer` draws one small-multiple cell — group
background, arena rim, the trajectory's per-eye projected space-time
polyline with a time gradient, brush-highlighted segments in their
query color, and the translucent brush footprint — into a tile
framebuffer.  All geometry arrives in wall meters and is converted to
tile pixels through the owning :class:`~repro.display.tile.Tile`: a
cell's two corners are projected once, into its :class:`CellPlacement`,
and every draw of the cell takes its pixel box from that placement.

Coverage accumulation happens in *cell-local* scratch buffers (the
cell's pixel bounding box, not the whole tile), which keeps per-cell
cost proportional to cell area — with 36x12 layouts a tile hosts dozens
of cells and tile-sized temporaries would dominate the frame time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.render.color import Color, named_color, time_gradient
from repro.render.framebuffer import CoverageLayer, Framebuffer
from repro.render.lines import splat_polylines
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.trajectory.model import Trajectory

__all__ = ["CellStyle", "CellRenderer", "CellPlacement", "FootprintGeometry"]


@dataclass(frozen=True)
class CellStyle:
    """Visual styling of a cell."""

    background: Color = (0.10, 0.10, 0.12)
    rim_color: Color = (0.35, 0.35, 0.40)
    line_width: float = 1.6
    highlight_width: float = 2.4
    brush_alpha: float = 0.25
    background_dim: float = 0.35
    step_px: float = 0.7
    #: Pixels of slack around a cell for content that overhangs it
    #: (stereo shear pushes near-depth samples sideways).
    overdraw_px: int = 8


class FootprintGeometry(NamedTuple):
    """A cell's placement on the pixel grid, in cell-local terms.

    A cell whose edges fall between pixels covers an integer pixel box
    wider than itself, and which side the extra pixel sits on depends
    on the sub-pixel phase of the cell's origin — two cells of the same
    box size can carry it on opposite sides.  Brush-footprint coverage
    is a function of these fields and the color's stamps only, so it is
    the footprint layer's key (with the stamps).
    """

    width: int               # pixel box the cell covers
    height: int
    phase_x: float           # cell origin minus box origin, in pixels
    phase_y: float
    cell_width: float        # cell extent in pixels
    cell_height: float
    px_per_arena_x: float    # pixels per arena meter
    px_per_arena_y: float


class CellPlacement(NamedTuple):
    """A cell's placement on one tile: the unclipped origin of the pixel
    box it covers and its :class:`FootprintGeometry`.

    One projection of the cell's corners gives both, and every pixel
    box a draw uses follows from them by integer arithmetic
    (:meth:`CellRenderer.pixel_box`): ``x0 + geometry.width`` is the
    ceiling of the cell's right edge.
    """

    x0: int
    y0: int
    geometry: FootprintGeometry


class CellRenderer:
    """Draws trajectory cells onto one tile's framebuffer."""

    def __init__(
        self,
        tile: Tile,
        projection: SpaceTimeProjection,
        style: CellStyle | None = None,
    ) -> None:
        self.tile = tile
        self.projection = projection
        self.style = style or CellStyle()

    # Placement -------------------------------------------------------------
    def place(self, mapper: CoordinateMapper) -> CellPlacement:
        """The placement of ``mapper``'s cell on this tile."""
        rect = mapper.cell_rect
        corners = np.array([[rect[0], rect[1]], [rect[2], rect[3]]], dtype=np.float64)
        px = self.tile.wall_to_pixel(corners)
        x0, y0 = int(np.floor(px[0, 0])), int(np.floor(px[0, 1]))
        sx, sy = self.tile.pixels_per_meter
        geometry = FootprintGeometry(
            width=int(np.ceil(px[1, 0])) - x0,
            height=int(np.ceil(px[1, 1])) - y0,
            phase_x=float(px[0, 0] - x0),
            phase_y=float(px[0, 1] - y0),
            cell_width=float(px[1, 0] - px[0, 0]),
            cell_height=float(px[1, 1] - px[0, 1]),
            px_per_arena_x=mapper.scale * sx,
            px_per_arena_y=mapper.scale * sy,
        )
        return CellPlacement(x0, y0, geometry)

    def pixel_box(self, placement: CellPlacement, pad: int = 0) -> tuple[int, int, int, int]:
        """The cell's pixel box grown by ``pad`` on every side and
        clipped to the tile, as (x0, y0, x1, y1)."""
        x0, y0, g = placement
        return (
            max(0, x0 - pad),
            max(0, y0 - pad),
            min(self.tile.px_width, x0 + g.width + pad),
            min(self.tile.px_height, y0 + g.height + pad),
        )

    def _dim(self, color: Color) -> Color:
        k = self.style.background_dim
        return (color[0] * k, color[1] * k, color[2] * k)

    def cell_polyline(
        self,
        traj: Trajectory,
        mapper: CoordinateMapper,
        eye: Eye,
        placement: CellPlacement,
    ) -> np.ndarray:
        """The trajectory's per-eye projected polyline, in pixels of the
        cell's padded box (read-only).

        :meth:`draw_trajectory` and :meth:`draw_highlights` splat in
        this frame, so one projection serves the trajectory and every
        highlight color of a (cell, eye).
        """
        x0, y0, _, _ = self.pixel_box(placement, pad=self.style.overdraw_px)
        px = self.tile.wall_to_pixel(self.projection.project(traj, mapper, eye))
        px -= (x0, y0)
        px.setflags(write=False)
        return px

    # Drawing ------------------------------------------------------------------
    def draw_background(
        self,
        fb: Framebuffer,
        placement: CellPlacement,
        group_color: Color | None,
    ) -> None:
        """Fill the cell with its (dimmed) group color."""
        x0, y0, x1, y1 = self.pixel_box(placement)
        color = self._dim(group_color) if group_color is not None else self.style.background
        fb.fill_rect(x0, y0, x1, y1, color)

    def draw_arena_rim(self, fb: Framebuffer, mapper: CoordinateMapper) -> None:
        """The arena outline — the visual reference for brushing."""
        center_wall = mapper.arena_to_wall(np.zeros((1, 2)))[0]
        center_px = self.tile.wall_to_pixel(center_wall[None, :])[0]
        radius_px = mapper.scale * mapper.arena.radius * self.tile.pixels_per_meter[0]
        fb.draw_circle_outline(
            center_px[0], center_px[1], radius_px, self.style.rim_color, thickness=1.0
        )

    def draw_trajectory(
        self,
        fb: Framebuffer,
        traj: Trajectory,
        placement: CellPlacement,
        polyline: np.ndarray,
    ) -> None:
        """Splat the per-eye projected space-time polyline, time-graded.

        ``polyline`` is this (cell, eye)'s :meth:`cell_polyline`.
        """
        x0, y0, x1, y1 = self.pixel_box(placement, pad=self.style.overdraw_px)
        if x1 <= x0 or y1 <= y0:
            return
        a = polyline[:-1]
        b = polyline[1:]
        tmid = 0.5 * (traj.times[:-1] + traj.times[1:])
        denom = max(traj.duration, 1e-9)
        t01 = (tmid - traj.times[0]) / denom
        ch, cw = y1 - y0, x1 - x0
        coverage = np.zeros((ch, cw), dtype=np.float64)
        rgb = np.zeros((ch, cw, 3), dtype=np.float64)
        splat_polylines(
            coverage,
            a,
            b,
            width=self.style.line_width,
            step=self.style.step_px,
            seg_values=t01,
            rgb_accum=rgb,
            value_to_rgb=time_gradient,
        )
        hit = coverage > 1e-9
        mean_rgb = np.zeros((ch, cw, 3), dtype=np.float32)
        mean_rgb[hit] = rgb[hit] / coverage[hit][:, None]
        fb.composite(coverage, mean_rgb, x0, y0)

    def draw_highlights(
        self,
        fb: Framebuffer,
        traj: Trajectory,
        seg_mask: np.ndarray,
        color_name: str,
        placement: CellPlacement,
        polyline: np.ndarray,
    ) -> CoverageLayer | None:
        """Overlay the highlighted segments in the brush color.

        ``polyline`` is this (cell, eye)'s :meth:`cell_polyline`.
        Returns the highlight coverage as a composite-ready layer of the
        cell's padded box (the top-left corner of
        ``pixel_box(placement, pad=style.overdraw_px)``), or ``None``
        when nothing is drawn.  It does not depend on the color, so the
        pipeline blends it again for any color with the same mask.
        """
        seg_mask = np.asarray(seg_mask, dtype=bool)
        if seg_mask.shape != (traj.n_samples - 1,):
            raise ValueError(
                f"seg_mask has {seg_mask.shape}, expected ({traj.n_samples - 1},)"
            )
        if not seg_mask.any():
            return None
        x0, y0, x1, y1 = self.pixel_box(placement, pad=self.style.overdraw_px)
        if x1 <= x0 or y1 <= y0:
            return None
        a = polyline[:-1][seg_mask]
        b = polyline[1:][seg_mask]
        coverage = np.zeros((y1 - y0, x1 - x0), dtype=np.float64)
        splat_polylines(
            coverage, a, b, width=self.style.highlight_width, step=self.style.step_px
        )
        layer = CoverageLayer.prepare(coverage)
        fb.blend(layer, named_color(color_name), x0, y0)
        return layer

    def brush_footprint_coverage(
        self,
        geometry: FootprintGeometry,
        centers_arena: np.ndarray,
        radii_arena: np.ndarray,
        *,
        stamp_chunk: int = 64,
    ) -> np.ndarray:
        """Coverage map of the brushed region over one cell's pixel box.

        Computed as a signed distance field on the cell's pixel grid:
        for each pixel, the minimum of (distance-to-stamp - radius)
        over all stamps, converted to coverage with a one-pixel soft
        edge.  Stamps are processed in chunks to bound the
        (pixels x stamps) temporary.

        Pixel centers are placed in cell-local coordinates from the
        cell's :class:`FootprintGeometry` alone, so the map is a pure
        function of (geometry, stamps): callers cache it per
        (geometry, stamps) at any scope — see
        :meth:`WallRenderer.render_job
        <repro.render.pipeline.WallRenderer.render_job>`.  The map
        covers the whole box, on the tile or not.
        """
        g = geometry
        # arena coordinates of every pixel center: its pixel offset from
        # the cell center (the arena origin) over pixels per arena meter
        ax = (np.arange(g.width) + 0.5 - (g.phase_x + 0.5 * g.cell_width)) / g.px_per_arena_x
        ay = ((g.phase_y + 0.5 * g.cell_height) - (np.arange(g.height) + 0.5)) / g.px_per_arena_y
        gx, gy = np.meshgrid(ax, ay)
        px, py = gx.ravel(), gy.ravel()
        centers = np.asarray(centers_arena, dtype=np.float64)
        radii = np.asarray(radii_arena, dtype=np.float64)
        signed = np.full(len(px), np.inf)
        for lo in range(0, len(centers), stamp_chunk):
            c = centers[lo : lo + stamp_chunk]
            r = radii[lo : lo + stamp_chunk]
            d = np.sqrt((px[:, None] - c[None, :, 0]) ** 2 + (py[:, None] - c[None, :, 1]) ** 2)
            np.minimum(signed, (d - r[None, :]).min(axis=1), out=signed)
        soft = 1.0 / g.px_per_arena_x  # 1 px in arena m
        coverage = np.clip(0.5 - signed / soft, 0.0, 1.0)
        return coverage.reshape(g.height, g.width)

    def draw_brush_footprint(
        self,
        fb: Framebuffer,
        placement: CellPlacement,
        centers_arena: np.ndarray,
        radii_arena: np.ndarray,
        color_name: str,
    ) -> CoverageLayer | None:
        """Translucent discs showing where the brush was painted.

        Returns the footprint (coverage times ``brush_alpha``) as a
        composite-ready layer of the cell's whole pixel box, so the
        pipeline can blend it again for every cell with the same
        :class:`FootprintGeometry`, at that cell's box origin; the part
        off the tile is clipped at blend time.
        """
        centers_arena = np.asarray(centers_arena, dtype=np.float64)
        if len(centers_arena) == 0:
            return None
        coverage = self.brush_footprint_coverage(
            placement.geometry, centers_arena, radii_arena
        )
        layer = CoverageLayer.prepare(coverage * self.style.brush_alpha)
        fb.blend(layer, named_color(color_name), placement.x0, placement.y0)
        return layer
