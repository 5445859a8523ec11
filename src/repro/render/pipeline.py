"""The wall rendering pipeline.

A :class:`WallRenderer` turns an exploration state — dataset, layout
assignment, brush canvas, query results, temporal window, projection —
into per-tile, per-eye framebuffers.  Tiles are independent render
units: a job touches only the cells on one panel, which is what makes
process-parallel rendering (:mod:`repro.parallel.tilerender`) a
drop-in.

A :class:`RenderJob` is the picklable work description one tile worker
needs (everything resolved to plain arrays before shipping).

Every job renders in two passes.  The *base* pass draws every cell's
background, arena rim, label and time-graded trajectory; nothing in it
reads the brush canvas, the query results or the time window.  The
*overlay* pass draws every cell's brush footprints and highlights over
a copy of the base.  The renderer retains the bases of its last job
list, keyed by value on everything they read (:class:`BaseKey`), so a
brush or time-window tick copies each (tile, eye) base and redraws only the
overlay.  A cold job builds its base first and then takes the same
path; nothing is ever invalidated by hand.  The overlay's layers are
retained the same way, composite-ready
(:class:`~repro.render.framebuffer.CoverageLayer`): footprints keyed by
value on the cell geometry, the stamps and the brush alpha
(:class:`FootprintKey`),
highlights on the job's base key, the cell and its segment mask
(:class:`HighlightKey`).  A tick that replaces one color's stroke
rasterizes only that color's footprints and splats only the cells
whose mask for it changed; every other layer is blended as it is.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from repro.core.canvas import BrushCanvas
from repro.core.result import QueryResult
from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.display.viewport import Viewport
from repro.layout.cells import CellAssignment
from repro.render.color import named_color
from repro.render.framebuffer import CoverageLayer, Framebuffer
from repro.render.raster import CellPlacement, CellRenderer, CellStyle, FootprintGeometry
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["BaseKey", "FootprintKey", "HighlightKey", "RenderJob", "WallRenderer"]

ArrayValue = tuple[str, tuple[int, ...], bytes]


@dataclass(frozen=True)
class RenderJob:
    """Work description for rendering one tile for one eye."""

    tile: Tile
    eye: Eye
    cell_rects: np.ndarray            # (C, 4) wall rects of cells on this tile
    cell_traj: np.ndarray             # (C,) dataset indices (-1 = empty)
    cell_colors: np.ndarray           # (C, 3) group background colors
    cell_labels: tuple[str, ...] = () # per-cell annotation ("" = none)


def _array_value(a: np.ndarray) -> ArrayValue:
    """An array as a hashable value: dtype, shape and bytes."""
    return a.dtype.str, a.shape, a.tobytes()


class BaseKey(NamedTuple):
    """Everything one job's base layer reads, by value.

    The dataset enters by identity and epoch: two datasets can share an
    epoch, an appended dataset keeps its identity, and a key holds its
    dataset alive, so the identity is never a reused ``id()``.  The
    other fields are frozen values or array bytes.
    """

    dataset: TrajectoryDataset
    epoch: int
    arena: Arena
    tile: Tile
    eye: Eye
    cell_rects: ArrayValue
    cell_traj: ArrayValue
    cell_colors: ArrayValue
    cell_labels: tuple[str, ...]
    projection: SpaceTimeProjection
    style: CellStyle


class FootprintKey(NamedTuple):
    """Everything a footprint layer reads, by value: the cell geometry,
    one color's stamp centers and radii, and the style's brush alpha,
    which the layer is prepared with.  Cells on any tile with the same
    geometry share the layer, and so do colors with the same stamps."""

    geometry: FootprintGeometry
    centers: ArrayValue
    radii: ArrayValue
    brush_alpha: float


class HighlightKey(NamedTuple):
    """Everything a highlight layer reads, by value: the job's base key
    (trajectory, rect, tile, eye, projection and style), the cell's index
    in the job and its segment mask.  The color only tints the blend, so
    colors with the same mask on a cell share the layer.  A highlight key
    never equals a :class:`FootprintKey` (they differ in length), so both
    live in one overlay dict."""

    base: BaseKey
    cell: int
    seg_mask: ArrayValue


OverlayKey = FootprintKey | HighlightKey


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
        #: The last job list's base layers by :class:`BaseKey`, read-only.
        self._bases: dict[BaseKey, np.ndarray] = {}
        #: The last job list's overlay layers (footprints and highlights).
        self._overlay: dict[OverlayKey, CoverageLayer] = {}
        #: Base layers this renderer has drawn (one per cold job).
        self.bases_built = 0

    def __getstate__(self) -> dict[str, Any]:
        # retained pixels stay in this process: a pickled renderer
        # carries no bases and no overlay layers
        return {**self.__dict__, "_bases": {}, "_overlay": {}}

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
    def base_key(self, job: RenderJob) -> BaseKey:
        """Everything ``job``'s base layer reads, by value."""
        return BaseKey(
            self.dataset, self.dataset.epoch, self.arena, job.tile, job.eye,
            _array_value(job.cell_rects), _array_value(job.cell_traj),
            _array_value(job.cell_colors), job.cell_labels,
            self.projection, self.style,
        )

    @property
    def retained_bytes(self) -> int:
        """Pixel bytes of the retained base and overlay layers."""
        return sum(base.nbytes for base in self._bases.values()) + sum(
            layer.nbytes for layer in self._overlay.values()
        )

    def render_job(
        self,
        job: RenderJob,
        *,
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
        overlay: dict[OverlayKey, CoverageLayer] | None = None,
        bases: dict[BaseKey, np.ndarray] | None = None,
    ) -> Framebuffer:
        """Rasterize one tile/eye job into a fresh framebuffer.

        The job's base layer (every cell's background, arena rim, label
        and trajectory) comes from the renderer's retained bases when
        :meth:`base_key` finds it there, and is drawn otherwise.  The
        returned framebuffer is one copy of that base with the overlay
        (every cell's brush footprints, then its highlights) drawn on
        top; the caller owns it.  ``bases``, when given, receives the
        base under its key — :meth:`render_jobs` keeps those.

        ``overlay`` maps an overlay key (:class:`FootprintKey` or
        :class:`HighlightKey`) to its composite-ready layer.  A layer is
        a pure function of its key, so one dict may serve any jobs and
        any canvas or results, with bytes identical to any other scope.
        The job looks a layer up there, then among the renderer's
        retained layers, and rasterizes it only when both miss; every
        layer it uses lands in the dict.  :meth:`render_jobs` shares one
        across its whole job list and retains it.  Without a dict the
        job builds its own.
        """
        renderer = CellRenderer(job.tile, self.projection, self.style)
        cells: list[tuple[CoordinateMapper, int]] = []
        for rect, traj_idx in zip(job.cell_rects, job.cell_traj):
            rect_t = (float(rect[0]), float(rect[1]), float(rect[2]), float(rect[3]))
            cells.append((CoordinateMapper(self.arena, rect_t), int(traj_idx)))
        placements: dict[int, CellPlacement] = {}
        polylines: dict[int, np.ndarray] = {}

        def placement(k: int) -> CellPlacement:
            """Cell ``k``'s placement on the tile: once per cell per job."""
            if k not in placements:
                placements[k] = renderer.place(cells[k][0])
            return placements[k]

        def polyline(k: int) -> np.ndarray:
            """Cell ``k``'s projected polyline: once per (cell, eye) per job."""
            if k not in polylines:
                mapper, traj_idx = cells[k]
                polylines[k] = renderer.cell_polyline(
                    self.dataset[traj_idx], mapper, job.eye, placement(k)
                )
            return polylines[k]

        key = self.base_key(job)
        base = self._bases.get(key)
        if base is None:
            base = self._draw_base(renderer, job, cells, placement, polyline)
            self.bases_built += 1
        if bases is not None:
            bases[key] = base
        fb = Framebuffer.from_pixels(base)
        self._draw_overlay(
            renderer, fb, key, cells, placement, polyline, canvas, results,
            {} if overlay is None else overlay,
        )
        return fb

    def _draw_base(
        self,
        renderer: CellRenderer,
        job: RenderJob,
        cells: list[tuple[CoordinateMapper, int]],
        placement: Callable[[int], CellPlacement],
        polyline: Callable[[int], np.ndarray],
    ) -> np.ndarray:
        """Every cell's background, rim, label and trajectory, as a new
        read-only image."""
        fb = Framebuffer(job.tile.px_width, job.tile.px_height, self.style.background)
        labels = job.cell_labels or ("",) * len(cells)
        for k, ((mapper, traj_idx), color, label) in enumerate(
            zip(cells, job.cell_colors, labels)
        ):
            renderer.draw_background(fb, placement(k), tuple(color))
            renderer.draw_arena_rim(fb, mapper)
            if label:
                from repro.render.font import draw_text

                x0, y0, _, y1 = renderer.pixel_box(placement(k))
                # scale the label with the cell so it stays legible on
                # composed (downscaled) wall frames
                scale = max(1, (y1 - y0) // 60)
                draw_text(fb, x0 + 3, y0 + 3, label, alpha=0.9, scale=scale)
            if traj_idx >= 0:
                renderer.draw_trajectory(
                    fb, self.dataset[traj_idx], placement(k), polyline(k)
                )
        fb.data.setflags(write=False)
        return fb.data

    def _draw_overlay(
        self,
        renderer: CellRenderer,
        fb: Framebuffer,
        key: BaseKey,
        cells: list[tuple[CoordinateMapper, int]],
        placement: Callable[[int], CellPlacement],
        polyline: Callable[[int], np.ndarray],
        canvas: BrushCanvas | None,
        results: dict[str, QueryResult] | None,
        overlay: dict[OverlayKey, CoverageLayer],
    ) -> None:
        """Every displayed cell's brush footprints, then its highlights:
        each layer blended from ``overlay`` or the retained layers, or
        drawn and added to ``overlay``."""

        def reuse(layer_key: OverlayKey) -> CoverageLayer | None:
            layer = overlay.get(layer_key)
            if layer is None:
                layer = self._overlay.get(layer_key)
                if layer is not None:
                    overlay[layer_key] = layer
            return layer

        stamps = []
        for color_name in [] if canvas is None else canvas.colors():
            centers, radii = canvas.stamps_of(color_name)
            if len(centers):
                stamps.append((color_name, centers, radii,
                               _array_value(centers), _array_value(radii)))
        for k, (_, traj_idx) in enumerate(cells):
            if traj_idx < 0:
                continue
            if stamps:
                place = placement(k)
                for color_name, centers, radii, centers_value, radii_value in stamps:
                    footprint_key = FootprintKey(
                        place.geometry, centers_value, radii_value, self.style.brush_alpha
                    )
                    layer = reuse(footprint_key)
                    if layer is not None:
                        fb.blend(layer, named_color(color_name), place.x0, place.y0)
                        continue
                    layer = renderer.draw_brush_footprint(
                        fb, place, centers, radii, color_name
                    )
                    if layer is not None:
                        overlay[footprint_key] = layer
            if results:
                rows = self.dataset.packed().rows_of(traj_idx)
                for color_name, res in results.items():
                    seg_mask = res.segment_mask[rows]
                    if not seg_mask.any():
                        continue
                    highlight_key = HighlightKey(key, k, _array_value(seg_mask))
                    layer = reuse(highlight_key)
                    if layer is not None:
                        # blended at the cell's padded box origin
                        x0, y0, _, _ = renderer.pixel_box(
                            placement(k), pad=self.style.overdraw_px
                        )
                        fb.blend(layer, named_color(color_name), x0, y0)
                        continue
                    layer = renderer.draw_highlights(
                        fb, self.dataset[traj_idx], seg_mask, color_name,
                        placement(k), polyline(k),
                    )
                    if layer is not None:
                        overlay[highlight_key] = layer

    def render_jobs(
        self,
        jobs: Sequence[RenderJob],
        *,
        canvas: BrushCanvas | None = None,
        results: dict[str, QueryResult] | None = None,
    ) -> list[tuple[Framebuffer, float]]:
        """Render a job list with one overlay dict across it, and retain
        its base layers and overlay layers.

        Returns each job's framebuffer and in-process render seconds, in
        job order.  Every render path goes through here: the serial
        frame, each tile owner's batch and the parent's last-resort
        re-render of a failed batch.  The list pays each footprint
        rasterization once per (geometry, stamps) instead of once per
        job, and not at all when the last list already used it.

        Afterwards the renderer retains exactly the bases these jobs
        used or built, one image per (tile, eye), and exactly the
        overlay layers they used: the next list redraws only the overlay
        of every job whose :meth:`base_key` is unchanged, rasterizes
        only the footprints of strokes that changed and splats only the
        highlights whose mask changed.  Bases this list does not use are
        dropped before it renders, so a layout change holds one frame of
        bases, not two.
        """
        keys = {self.base_key(job) for job in jobs}
        self._bases = {key: base for key, base in self._bases.items() if key in keys}
        overlay: dict[OverlayKey, CoverageLayer] = {}
        bases: dict[BaseKey, np.ndarray] = {}
        out: list[tuple[Framebuffer, float]] = []
        for job in jobs:
            t0 = time.perf_counter()
            fb = self.render_job(
                job, canvas=canvas, results=results, overlay=overlay, bases=bases,
            )
            out.append((fb, time.perf_counter() - t0))
        self._bases = bases
        self._overlay = overlay
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
