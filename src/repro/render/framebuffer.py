"""Framebuffers.

A :class:`Framebuffer` is an (H, W, 3) float32 RGB image with the
blending operations the renderer needs: rect fills, one alpha
composite for every coverage layer, and circle outlines.  Every render
job returns a new buffer that its caller owns: either a cleared one
(a cold job's base pass draws into it) or one copy of a retained base
image (:meth:`Framebuffer.from_pixels`, see
:class:`~repro.render.pipeline.WallRenderer`).  Drawing then writes in
place.

The composite runs in two steps: :meth:`CoverageLayer.prepare` turns a
coverage map into a composite-ready layer, and :meth:`Framebuffer.blend`
blends that layer at a position.  The renderer retains overlay layers
prepared, so blending one again costs two in-place operations on a
slice of the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.color import Color

__all__ = ["CoverageLayer", "Framebuffer"]


@dataclass(frozen=True, eq=False)
class CoverageLayer:
    """A coverage map prepared for blending, with no position and no color.

    ``alpha`` is the bounding box of the map's positive coverage,
    clipped to [0, 1] in float32, and ``keep`` is ``1 - alpha``; both
    are (h, w, 1) and read-only.  ``top`` and ``left`` place that box
    in the map, whose (rows, cols) are ``shape``.  An all-zero map
    yields an empty box.
    """

    shape: tuple[int, int]
    top: int
    left: int
    alpha: np.ndarray
    keep: np.ndarray

    @classmethod
    def prepare(cls, coverage: np.ndarray) -> "CoverageLayer":
        """The layer of a 2-D coverage map (pure: ``coverage`` is only read).

        A zero-alpha pixel leaves the buffer unchanged (``x * 1 + 0 ==
        x``; a framebuffer holds no negative zero), so only the bounding
        box of the positive coverage is kept.  Clip, cast and ``1 - a``
        are elementwise, so preparing the whole box and cropping it to
        a buffer later yields the float32 values a crop-first composite
        computes.
        """
        positive = coverage > 0
        rows = np.flatnonzero(positive.any(axis=1))
        cols = np.flatnonzero(positive.any(axis=0))
        r0, r1 = (int(rows[0]), int(rows[-1]) + 1) if len(rows) else (0, 0)
        c0, c1 = (int(cols[0]), int(cols[-1]) + 1) if len(cols) else (0, 0)
        alpha = np.clip(coverage[r0:r1, c0:c1], 0.0, 1.0).astype(np.float32)[..., None]
        keep = 1.0 - alpha
        alpha.setflags(write=False)
        keep.setflags(write=False)
        return cls((coverage.shape[0], coverage.shape[1]), r0, c0, alpha, keep)

    @property
    def nbytes(self) -> int:
        """Bytes of the layer's pixel arrays."""
        return self.alpha.nbytes + self.keep.nbytes


class Framebuffer:
    """An RGB render target.

    Parameters
    ----------
    width, height:
        Pixel dimensions.
    background:
        Initial clear color.
    """

    def __init__(self, width: int, height: int, background: Color = (0.1, 0.1, 0.12)) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"framebuffer size must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.data = np.empty((self.height, self.width, 3), dtype=np.float32)
        self.clear(background)

    @classmethod
    def from_pixels(cls, pixels: np.ndarray) -> "Framebuffer":
        """A framebuffer over one writable float32 copy of an (H, W, 3)
        image; ``pixels`` itself is never written (it may be read-only)."""
        if pixels.ndim != 3 or pixels.shape[2] != 3 or not pixels.size:
            raise ValueError(f"expected an (H, W, 3) image, got shape {pixels.shape}")
        fb = cls.__new__(cls)
        fb.data = np.array(pixels, dtype=np.float32)
        fb.height, fb.width = fb.data.shape[:2]
        return fb

    def clear(self, color: Color = (0.0, 0.0, 0.0)) -> None:
        """Fill the whole buffer with one color (in place)."""
        self.data[...] = np.asarray(color, dtype=np.float32)

    def fill_rect(self, x0: int, y0: int, x1: int, y1: int, color: Color) -> None:
        """Fill a pixel rectangle [x0, x1) x [y0, y1), clipped to the buffer."""
        x0 = max(0, int(x0))
        y0 = max(0, int(y0))
        x1 = min(self.width, int(x1))
        y1 = min(self.height, int(y1))
        if x1 > x0 and y1 > y0:
            self.data[y0:y1, x0:x1] = np.asarray(color, dtype=np.float32)

    def composite(
        self, coverage: np.ndarray, color: Color | np.ndarray, x0: int = 0, y0: int = 0
    ) -> None:
        """Alpha-composite a coverage map whose top-left pixel sits at (x0, y0).

        ``out = (1 - a) * out + a * color`` in place, with ``a`` the
        coverage clipped to [0, 1] in float32 and ``color`` one RGB
        triple or an (h, w, 3) per-pixel array the shape of
        ``coverage``.  The map is clipped to the buffer.  This is
        :meth:`blend` of :meth:`CoverageLayer.prepare`: only the
        bounding box of the positive coverage is blended.
        """
        self.blend(CoverageLayer.prepare(coverage), color, x0, y0)

    def blend(
        self, layer: CoverageLayer, color: Color | np.ndarray, x0: int = 0, y0: int = 0
    ) -> None:
        """Alpha-composite a prepared layer whose map's top-left pixel sits
        at (x0, y0): crop it to the buffer, then ``out *= keep`` and
        ``out += alpha * color`` in place.

        ``color`` is one RGB triple or an (h, w, 3) per-pixel array the
        shape of the layer's map, cropped with it.
        """
        color = np.asarray(color, dtype=np.float32)
        if color.ndim == 3 and color.shape[:2] != layer.shape:
            raise ValueError(f"color shape {color.shape} != coverage {layer.shape}")
        h, w = layer.alpha.shape[:2]
        by, bx = y0 + layer.top, x0 + layer.left  # the box's top-left on the buffer
        r0, r1 = max(0, -by), min(h, self.height - by)
        c0, c1 = max(0, -bx), min(w, self.width - bx)
        if r1 <= r0 or c1 <= c0:
            return
        if color.ndim == 3:
            color = color[layer.top + r0 : layer.top + r1, layer.left + c0 : layer.left + c1]
        region = self.data[by + r0 : by + r1, bx + c0 : bx + c1]
        region *= layer.keep[r0:r1, c0:c1]
        region += layer.alpha[r0:r1, c0:c1] * color

    def draw_circle_outline(
        self, cx: float, cy: float, radius: float, color: Color, thickness: float = 1.0
    ) -> None:
        """Anti-aliased circle outline (the arena rim in each cell).

        Computed over the circle's bounding box only, with coverage
        falling off linearly over one pixel around the ring.
        """
        if radius <= 0:
            return
        pad = thickness + 1.5
        x0 = max(0, int(np.floor(cx - radius - pad)))
        x1 = min(self.width, int(np.ceil(cx + radius + pad)) + 1)
        y0 = max(0, int(np.floor(cy - radius - pad)))
        y1 = min(self.height, int(np.ceil(cy + radius + pad)) + 1)
        if x1 <= x0 or y1 <= y0:
            return
        ys, xs = np.mgrid[y0:y1, x0:x1]
        d = np.abs(np.hypot(xs - cx, ys - cy) - radius)
        self.composite(1.0 + thickness / 2.0 - d, color, x0, y0)

    def to_uint8(self) -> np.ndarray:
        """uint8 copy for image output."""
        return (np.clip(self.data, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)

    def copy(self) -> "Framebuffer":
        """Deep copy (independent pixel storage)."""
        return Framebuffer.from_pixels(self.data)
