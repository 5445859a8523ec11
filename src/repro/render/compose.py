"""Frame composition.

Assembles per-tile framebuffers into a whole-wall image (with dark
pixels standing in for physical mullions, so composed frames show the
bezel grid exactly as a photograph of the wall would), and combines
per-eye frames into side-by-side stereo pairs or red-cyan anaglyphs
for inspection without polarized glasses.
"""

from __future__ import annotations

import numpy as np

from repro.display.wall import DisplayWall
from repro.render.framebuffer import Framebuffer

__all__ = ["compose_wall", "stereo_pair_side_by_side", "anaglyph"]

#: Color standing in for physical bezel material in composed frames.
BEZEL_COLOR = (0.02, 0.02, 0.02)


def compose_wall(
    wall: DisplayWall,
    tile_buffers: dict[tuple[int, int], Framebuffer],
    *,
    scale: float = 1.0,
) -> np.ndarray:
    """Compose per-tile buffers into one (H, W, 3) float image.

    ``tile_buffers`` maps (col, row) to that panel's framebuffer;
    missing tiles show the bezel color.  ``scale`` < 1 downsamples the
    output by integer striding (for quick previews of ~19 Mpixel
    frames).  Mullions are drawn at their true pixel-equivalent width.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    stride = max(1, int(round(1.0 / scale)))
    # mullion width in (full-res) pixels, using panel pixel density
    mx = int(round(wall.bezel.horizontal_mullion * wall.panel_px_width / wall.panel_width))
    my = int(round(wall.bezel.vertical_mullion * wall.panel_px_height / wall.panel_height))
    full_w = wall.cols * wall.panel_px_width + (wall.cols - 1) * mx
    full_h = wall.rows * wall.panel_px_height + (wall.rows - 1) * my

    out_w = (full_w + stride - 1) // stride
    out_h = (full_h + stride - 1) // stride
    out = np.empty((out_h, out_w, 3), dtype=np.float32)
    # fill one row with the bezel color and copy it down: broadcasting
    # the 3-float color over every pixel costs several times more
    out[0] = BEZEL_COLOR
    out[1:] = out[0]

    for (col, row), fb in tile_buffers.items():
        if not (0 <= col < wall.cols and 0 <= row < wall.rows):
            raise IndexError(f"tile ({col}, {row}) outside {wall.cols}x{wall.rows} wall")
        if (fb.width, fb.height) != (wall.panel_px_width, wall.panel_px_height):
            raise ValueError(
                f"tile ({col}, {row}) buffer is {fb.width}x{fb.height}, panel is "
                f"{wall.panel_px_width}x{wall.panel_px_height}"
            )
        x0 = col * (wall.panel_px_width + mx)
        y0 = row * (wall.panel_px_height + my)
        sub = fb.data[::stride, ::stride]
        # output placement of the strided tile
        ox0 = (x0 + stride - 1) // stride
        oy0 = (y0 + stride - 1) // stride
        oh, ow = sub.shape[:2]
        oh = min(oh, out_h - oy0)
        ow = min(ow, out_w - ox0)
        out[oy0 : oy0 + oh, ox0 : ox0 + ow] = sub[:oh, :ow]
    return out


def stereo_pair_side_by_side(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Concatenate per-eye frames horizontally (L | R)."""
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        raise ValueError(f"eye frames differ: {left.shape} vs {right.shape}")
    return np.concatenate([left, right], axis=1)


def anaglyph(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Red-cyan anaglyph: red from the left eye, green+blue from the right.

    Lets a stereo frame be checked with paper glasses (or just by
    looking at channel offsets) without polarized hardware.
    """
    left = np.asarray(left, dtype=np.float32)
    right = np.asarray(right, dtype=np.float32)
    if left.shape != right.shape:
        raise ValueError(f"eye frames differ: {left.shape} vs {right.shape}")
    # luminance per eye (Rec. 601 weights), then channel assignment
    lw = np.array([0.299, 0.587, 0.114], dtype=np.float32)
    lum_l = left @ lw
    lum_r = right @ lw
    out = np.empty_like(left)
    out[..., 0] = lum_l
    out[..., 1] = lum_r
    out[..., 2] = lum_r
    return out
