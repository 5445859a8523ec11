"""The wall rendering pipeline.

A :class:`WallRenderer` turns an exploration state — dataset, layout
assignment, brush canvas, query results, temporal window, projection —
into per-tile, per-eye framebuffers.  Tiles are independent render
units: :meth:`render_tile` touches only geometry overlapping one panel,
which is what makes process-parallel rendering
(:mod:`repro.parallel.tilerender`) a drop-in.

A :class:`RenderJob` is the picklable work description one tile worker
needs (everything resolved to plain arrays before shipping).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.canvas import BrushCanvas
from repro.core.result import QueryResult
from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.display.viewport import Viewport
from repro.layout.cells import CellAssignment
from repro.render.framebuffer import Framebuffer
from repro.render.raster import CellRenderer, CellStyle, FootprintGeometry
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["RenderJob", "WallRenderer"]


@dataclass(frozen=True)
class RenderJob:
    """Work description for rendering one tile for one eye."""

    tile: Tile
    eye: Eye
    cell_rects: np.ndarray            # (C, 4) wall rects of cells on this tile
    cell_traj: np.ndarray             # (C,) dataset indices (-1 = empty)
    cell_colors: np.ndarray           # (C, 3) group background colors
    cell_labels: tuple[str, ...] = () # per-cell annotation ("" = none)


class WallRenderer:
    """Renders the application's state onto a wall viewport.

    Parameters
    ----------
    dataset:
        Trajectories being displayed.
    arena:
        The shared arena (drives per-cell coordinate mappers).
    viewport:
        The hosting viewport.
    projection:
        Stereo space-time projection.
    style:
        Cell styling.
    """

    def __init__(
        self,
        dataset: TrajectoryDataset,
        arena: Arena,
        viewport: Viewport,
        projection: SpaceTimeProjection | None = None,
        style: CellStyle | None = None,
    ) -> None:
        self.dataset = dataset
        self.arena = arena
        self.viewport = viewport
        self.projection = projection or SpaceTimeProjection()
        self.style = style or CellStyle()

    # Job construction -----------------------------------------------------
    def _cells_on_tile(
        self, tile: Tile, assignment: CellAssignment
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
        """(rects, traj_indices, colors, labels) of cells intersecting one tile.

        Bezel-aware grids place each cell wholly inside a panel, so the
        intersection test is a containment test of cell centers.
        """
        rects = assignment.grid.rects()
        cx = 0.5 * (rects[:, 0] + rects[:, 2])
        cy = 0.5 * (rects[:, 1] + rects[:, 3])
        x0, y0, x1, y1 = tile.rect
        on_tile = (cx >= x0) & (cx < x1) & (cy >= y0) & (cy < y1)
        idx = np.flatnonzero(on_tile)
        colors = np.full((len(idx), 3), 0.10, dtype=np.float64)
        labels = [""] * len(idx)
        if assignment.groups is not None:
            specs = list(assignment.groups)
            labeled_groups: set[int] = set()
            for k, cell_i in enumerate(idx):
                gi = int(assignment.group_of_cell[cell_i])
                if gi >= 0:
                    colors[k] = specs[gi].color
                    # label each group once per tile, at its first cell
                    if gi not in labeled_groups:
                        labels[k] = specs[gi].name
                        labeled_groups.add(gi)
        return rects[idx], assignment.cell_to_traj[idx], colors, tuple(labels)

    def make_jobs(self, assignment: CellAssignment, eyes: tuple[Eye, ...] = (Eye.LEFT, Eye.RIGHT)) -> list[RenderJob]:
        """One job per (tile, eye) over the viewport."""
        jobs: list[RenderJob] = []
        for tile in self.viewport.tiles():
            rects, trajs, colors, labels = self._cells_on_tile(tile, assignment)
            for eye in eyes:
                jobs.append(RenderJob(tile, eye, rects, trajs, colors, labels))
        return jobs

    # Rendering ---------------------------------------------------------------
    def render_job(
        self,
        job: RenderJob,
        *,
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
        footprint_cache: dict[tuple[FootprintGeometry, str], np.ndarray] | None = None,
    ) -> Framebuffer:
        """Rasterize one tile/eye job into a fresh framebuffer.

        ``footprint_cache`` maps (cell
        :class:`~repro.render.raster.FootprintGeometry`, color) to the
        footprint coverage of the cell's pixel box.  Coverage is a pure
        function of that key and the color's strokes, so one dict may
        serve any set of jobs drawn with the same canvas, with bytes
        identical to any other cache scope; :meth:`render_jobs` shares
        one across its whole job list.  Without a dict the job builds
        its own.  Never reuse a cache across canvas changes.
        """
        tile = job.tile
        fb = Framebuffer(tile.px_width, tile.px_height, self.style.background)
        renderer = CellRenderer(tile, self.projection, self.style)
        packed = self.dataset.packed() if results else None
        if footprint_cache is None:
            footprint_cache = {}
        labels = job.cell_labels or ("",) * len(job.cell_rects)
        for rect, traj_idx, color, label in zip(
            job.cell_rects, job.cell_traj, job.cell_colors, labels
        ):
            rect_t = tuple(float(v) for v in rect)
            renderer.draw_background(fb, rect_t, tuple(color))
            mapper = CoordinateMapper(self.arena, rect_t)
            renderer.draw_arena_rim(fb, mapper)
            if label:
                from repro.render.font import draw_text

                x0, y0, _, y1 = renderer._cell_px_rect(rect_t)
                # scale the label with the cell so it stays legible on
                # composed (downscaled) wall frames
                scale = max(1, (y1 - y0) // 60)
                draw_text(fb, x0 + 3, y0 + 3, label, alpha=0.9, scale=scale)
            if traj_idx < 0:
                continue
            traj = self.dataset[int(traj_idx)]
            renderer.draw_trajectory(fb, traj, mapper, job.eye, rect_t)
            if canvas is not None:
                _, geometry = renderer.footprint_geometry(mapper, rect_t)
                for color_name in canvas.colors():
                    centers, radii = canvas.stamps_of(color_name)
                    if not len(centers):
                        continue
                    key = (geometry, color_name)
                    cov = renderer.draw_brush_footprint(
                        fb, mapper, centers, radii, color_name, rect_t,
                        precomputed=footprint_cache.get(key),
                    )
                    if cov is not None and key not in footprint_cache:
                        footprint_cache[key] = cov
            if results:
                for color_name, res in results.items():
                    rows = packed.rows_of(int(traj_idx))
                    seg_mask = res.segment_mask[rows]
                    if seg_mask.any():
                        renderer.draw_highlights(
                            fb, traj, mapper, job.eye, seg_mask, color_name, rect_t
                        )
        return fb

    def render_jobs(
        self,
        jobs: Sequence[RenderJob],
        *,
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
    ) -> list[tuple[Framebuffer, float]]:
        """Render a job list with one footprint cache across it.

        Returns each job's framebuffer and in-process render seconds, in
        job order.  Every render path goes through here: the serial
        frame, each pool worker's batch and the parent's last-resort
        re-render of a failed batch.  The list pays each footprint
        rasterization once per (geometry, color) instead of once per
        job.
        """
        footprint_cache: dict[tuple[FootprintGeometry, str], np.ndarray] = {}
        out: list[tuple[Framebuffer, float]] = []
        for job in jobs:
            t0 = time.perf_counter()
            fb = self.render_job(
                job, canvas=canvas, results=results, footprint_cache=footprint_cache
            )
            out.append((fb, time.perf_counter() - t0))
        return out

    def render_viewport(
        self,
        assignment: CellAssignment,
        *,
        eyes: tuple[Eye, ...] = (Eye.LEFT, Eye.RIGHT),
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
    ) -> dict[Eye, dict[tuple[int, int], Framebuffer]]:
        """Render every tile serially; returns {eye: {(col,row): fb}}.

        The process-parallel equivalent lives in
        :func:`repro.parallel.tilerender.render_viewport_parallel`.
        """
        jobs = self.make_jobs(assignment, eyes)
        out: dict[Eye, dict[tuple[int, int], Framebuffer]] = {eye: {} for eye in eyes}
        rendered = self.render_jobs(jobs, canvas=canvas, results=results)
        for job, (fb, _) in zip(jobs, rendered, strict=True):
            out[job.eye][(job.tile.col, job.tile.row)] = fb
        return out
