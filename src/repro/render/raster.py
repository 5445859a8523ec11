"""Cell rasterization.

A :class:`CellRenderer` draws one small-multiple cell — group
background, arena rim, the trajectory's per-eye projected space-time
polyline with a time gradient, brush-highlighted segments in their
query color, and the translucent brush footprint — into a tile
framebuffer.  All geometry arrives in wall meters and is converted to
tile pixels through the owning :class:`~repro.display.tile.Tile`.

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

__all__ = ["CellStyle", "CellRenderer", "FootprintGeometry"]


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

    # Helpers ---------------------------------------------------------------
    def _cell_px_rect(
        self, cell_rect: tuple[float, float, float, float], pad: int = 0
    ) -> tuple[int, int, int, int]:
        """Cell wall-rect -> clipped integer tile pixel rect (x0,y0,x1,y1)."""
        corners = np.array(
            [[cell_rect[0], cell_rect[1]], [cell_rect[2], cell_rect[3]]], dtype=np.float64
        )
        px = self.tile.wall_to_pixel(corners)
        x0 = max(0, int(np.floor(px[0, 0])) - pad)
        y0 = max(0, int(np.floor(px[0, 1])) - pad)
        x1 = min(self.tile.px_width, int(np.ceil(px[1, 0])) + pad)
        y1 = min(self.tile.px_height, int(np.ceil(px[1, 1])) + pad)
        return x0, y0, x1, y1

    def _dim(self, color: Color) -> Color:
        k = self.style.background_dim
        return (color[0] * k, color[1] * k, color[2] * k)

    def cell_polyline(
        self,
        traj: Trajectory,
        mapper: CoordinateMapper,
        eye: Eye,
        cell_rect: tuple[float, float, float, float],
    ) -> np.ndarray:
        """The trajectory's per-eye projected polyline, in pixels of the
        cell's padded box (read-only).

        :meth:`draw_trajectory` and :meth:`draw_highlights` splat in
        this frame, so one projection serves the trajectory and every
        highlight color of a (cell, eye).
        """
        x0, y0, _, _ = self._cell_px_rect(cell_rect, pad=self.style.overdraw_px)
        px = self.tile.wall_to_pixel(self.projection.project(traj, mapper, eye))
        px -= (x0, y0)
        px.setflags(write=False)
        return px

    # Drawing ------------------------------------------------------------------
    def draw_background(
        self,
        fb: Framebuffer,
        cell_rect: tuple[float, float, float, float],
        group_color: Color | None,
    ) -> None:
        """Fill the cell with its (dimmed) group color."""
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect)
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
        mapper: CoordinateMapper,
        eye: Eye,
        cell_rect: tuple[float, float, float, float],
        *,
        polyline: np.ndarray | None = None,
    ) -> None:
        """Splat the per-eye projected space-time polyline, time-graded.

        ``polyline`` is this (cell, eye)'s :meth:`cell_polyline`,
        projected here when omitted.
        """
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect, pad=self.style.overdraw_px)
        if x1 <= x0 or y1 <= y0:
            return
        px = self.cell_polyline(traj, mapper, eye, cell_rect) if polyline is None else polyline
        a = px[:-1]
        b = px[1:]
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
        mapper: CoordinateMapper,
        eye: Eye,
        seg_mask: np.ndarray,
        color_name: str,
        cell_rect: tuple[float, float, float, float],
        *,
        polyline: np.ndarray | None = None,
    ) -> CoverageLayer | None:
        """Overlay the highlighted segments in the brush color.

        ``polyline`` is this (cell, eye)'s :meth:`cell_polyline`,
        projected here when omitted.  Returns the highlight coverage as
        a composite-ready layer of the cell's padded box (origin
        :meth:`overlay_origin`), or ``None`` when nothing is drawn.  It
        does not depend on the color, so the pipeline blends it again
        for any color with the same mask.
        """
        seg_mask = np.asarray(seg_mask, dtype=bool)
        if seg_mask.shape != (traj.n_samples - 1,):
            raise ValueError(
                f"seg_mask has {seg_mask.shape}, expected ({traj.n_samples - 1},)"
            )
        if not seg_mask.any():
            return None
        x0, y0, x1, y1 = self._cell_px_rect(cell_rect, pad=self.style.overdraw_px)
        if x1 <= x0 or y1 <= y0:
            return None
        px = self.cell_polyline(traj, mapper, eye, cell_rect) if polyline is None else polyline
        a = px[:-1][seg_mask]
        b = px[1:][seg_mask]
        coverage = np.zeros((y1 - y0, x1 - x0), dtype=np.float64)
        splat_polylines(
            coverage, a, b, width=self.style.highlight_width, step=self.style.step_px
        )
        layer = CoverageLayer.prepare(coverage)
        fb.blend(layer, named_color(color_name), x0, y0)
        return layer

    def overlay_origin(self, cell_rect: tuple[float, float, float, float]) -> tuple[int, int]:
        """Top-left tile pixel of the cell's padded box, where its
        highlight layers are blended."""
        x0, y0, _, _ = self._cell_px_rect(cell_rect, pad=self.style.overdraw_px)
        return x0, y0

    def footprint_geometry(
        self,
        mapper: CoordinateMapper,
        cell_rect: tuple[float, float, float, float],
    ) -> tuple[tuple[int, int], FootprintGeometry]:
        """The cell's pixel-box origin on this tile (unclipped) and its
        :class:`FootprintGeometry`, the cache key of its footprint."""
        corners = np.array(
            [[cell_rect[0], cell_rect[1]], [cell_rect[2], cell_rect[3]]], dtype=np.float64
        )
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
        return (x0, y0), geometry

    def brush_footprint_coverage(
        self,
        mapper: CoordinateMapper,
        cell_rect: tuple[float, float, float, float],
        centers_arena: np.ndarray,
        radii_arena: np.ndarray,
        *,
        stamp_chunk: int = 64,
    ) -> tuple[np.ndarray, tuple[int, int, int, int]]:
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
        <repro.render.pipeline.WallRenderer.render_job>`.  Returns the
        map and the cell's unclipped tile pixel box.
        """
        (x0, y0), g = self.footprint_geometry(mapper, cell_rect)
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
        return coverage.reshape(g.height, g.width), (x0, y0, x0 + g.width, y0 + g.height)

    def draw_brush_footprint(
        self,
        fb: Framebuffer,
        mapper: CoordinateMapper,
        centers_arena: np.ndarray,
        radii_arena: np.ndarray,
        color_name: str,
        cell_rect: tuple[float, float, float, float],
    ) -> CoverageLayer | None:
        """Translucent discs showing where the brush was painted.

        Returns the footprint (coverage times ``brush_alpha``) as a
        composite-ready layer of the cell's whole pixel box, so the
        pipeline can blend it again for every cell with the same
        :meth:`footprint_geometry`, at that cell's box origin; the part
        off the tile is clipped at blend time.
        """
        centers_arena = np.asarray(centers_arena, dtype=np.float64)
        if len(centers_arena) == 0:
            return None
        coverage, (x0, y0, _, _) = self.brush_footprint_coverage(
            mapper, cell_rect, centers_arena, radii_arena
        )
        layer = CoverageLayer.prepare(coverage * self.style.brush_alpha)
        fb.blend(layer, named_color(color_name), x0, y0)
        return layer
