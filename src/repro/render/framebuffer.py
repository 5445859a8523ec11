"""Framebuffers.

A :class:`Framebuffer` is an (H, W, 3) float32 RGB image with the
blending operations the renderer needs: rect fills, additive /
alpha-composited splat accumulation, and circle outlines.  Buffers are
preallocated once per tile per eye and reused across frames (guide
idiom: allocate outside the loop, write in place).
"""

from __future__ import annotations

import numpy as np

from repro.render.color import Color

__all__ = ["Framebuffer"]


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
    def from_array(cls, data: np.ndarray) -> "Framebuffer":
        """Adopt existing (H, W, 3) pixel storage without clearing.

        The assembly path for pooled renders: the parent wraps the
        pixels a worker shipped back, so re-clearing (or
        re-allocating) would discard the rendered pixels.  The array is
        taken as-is when it is already contiguous float32.
        """
        data = np.asarray(data)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValueError(f"pixel array must be (H, W, 3), got {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"framebuffer size must be positive, got {data.shape}")
        fb = cls.__new__(cls)
        fb.height = int(data.shape[0])
        fb.width = int(data.shape[1])
        fb.data = np.ascontiguousarray(data, dtype=np.float32)
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

    def composite_coverage(self, coverage: np.ndarray, color: Color) -> None:
        """Alpha-composite a coverage map (H, W) in [0, 1] of one color.

        ``out = (1 - a) * out + a * color`` with a = clipped coverage.
        In-place; no temporaries beyond the broadcast products.
        """
        if coverage.shape != (self.height, self.width):
            raise ValueError(
                f"coverage shape {coverage.shape} != buffer {self.height, self.width}"
            )
        a = np.clip(coverage, 0.0, 1.0).astype(np.float32)[..., None]
        c = np.asarray(color, dtype=np.float32)
        self.data *= 1.0 - a
        self.data += a * c

    def composite_rgb(self, coverage: np.ndarray, rgb: np.ndarray) -> None:
        """Alpha-composite a per-pixel colored layer.

        ``coverage`` is (H, W) in [0, 1]; ``rgb`` is (H, W, 3) premult-
        free color (already averaged per pixel).
        """
        if coverage.shape != (self.height, self.width):
            raise ValueError("coverage shape mismatch")
        if rgb.shape != (self.height, self.width, 3):
            raise ValueError("rgb shape mismatch")
        a = np.clip(coverage, 0.0, 1.0).astype(np.float32)[..., None]
        self.data *= 1.0 - a
        self.data += a * rgb.astype(np.float32)

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
        cov = np.clip(1.0 + thickness / 2.0 - d, 0.0, 1.0)
        a = cov.astype(np.float32)[..., None]
        c = np.asarray(color, dtype=np.float32)
        region = self.data[y0:y1, x0:x1]
        region *= 1.0 - a
        region += a * c

    def to_uint8(self) -> np.ndarray:
        """uint8 copy for image output."""
        return (np.clip(self.data, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)

    def copy(self) -> "Framebuffer":
        """Deep copy (independent pixel storage)."""
        fb = Framebuffer(self.width, self.height)
        fb.data[...] = self.data
        return fb
