"""Tests for frame composition (wall assembly, stereo pair, anaglyph)."""

import numpy as np
import pytest

from repro.display.wall import DisplayWall
from repro.render.compose import (
    BEZEL_COLOR,
    anaglyph,
    compose_wall,
    stereo_pair_side_by_side,
)
from repro.render.framebuffer import Framebuffer


@pytest.fixture()
def small_wall():
    return DisplayWall(
        cols=2, rows=2, panel_width=0.2, panel_height=0.1125,
        panel_px_width=64, panel_px_height=36,
    )


def _compose_by_broadcast(wall, tile_buffers, scale):
    """The whole-image broadcast fill ``compose_wall`` replaced, kept as
    its oracle."""
    stride = max(1, int(round(1.0 / scale)))
    mx = int(round(wall.bezel.horizontal_mullion * wall.panel_px_width / wall.panel_width))
    my = int(round(wall.bezel.vertical_mullion * wall.panel_px_height / wall.panel_height))
    full_w = wall.cols * wall.panel_px_width + (wall.cols - 1) * mx
    full_h = wall.rows * wall.panel_px_height + (wall.rows - 1) * my
    out_w = (full_w + stride - 1) // stride
    out_h = (full_h + stride - 1) // stride
    out = np.empty((out_h, out_w, 3), dtype=np.float32)
    out[...] = np.asarray(BEZEL_COLOR, dtype=np.float32)
    for (col, row), fb in tile_buffers.items():
        x0 = col * (wall.panel_px_width + mx)
        y0 = row * (wall.panel_px_height + my)
        sub = fb.data[::stride, ::stride]
        ox0 = (x0 + stride - 1) // stride
        oy0 = (y0 + stride - 1) // stride
        oh = min(sub.shape[0], out_h - oy0)
        ow = min(sub.shape[1], out_w - ox0)
        out[oy0 : oy0 + oh, ox0 : ox0 + ow] = sub[:oh, :ow]
    return out


def _buffers(wall, color=(1.0, 0.0, 0.0)):
    return {
        (c, r): Framebuffer(wall.panel_px_width, wall.panel_px_height, color)
        for c in range(wall.cols)
        for r in range(wall.rows)
    }


class TestComposeWall:
    def test_size_includes_mullions(self, small_wall):
        img = compose_wall(small_wall, _buffers(small_wall))
        mx = round(small_wall.bezel.horizontal_mullion * 64 / 0.2)
        my = round(small_wall.bezel.vertical_mullion * 36 / 0.1125)
        assert img.shape == (2 * 36 + my, 2 * 64 + mx, 3)

    def test_bezel_pixels_dark(self, small_wall):
        img = compose_wall(small_wall, _buffers(small_wall))
        # the mullion column sits right after the first panel
        assert img[0, 64, 0] < 0.1
        assert img[0, 0, 0] == pytest.approx(1.0)

    def test_missing_tiles_black(self, small_wall):
        img = compose_wall(small_wall, {(0, 0): Framebuffer(64, 36, (1, 1, 1))})
        assert img[0, 0, 0] == pytest.approx(1.0)
        assert img[-1, -1, 0] < 0.1

    def test_wrong_tile_size_rejected(self, small_wall):
        with pytest.raises(ValueError):
            compose_wall(small_wall, {(0, 0): Framebuffer(10, 10)})

    def test_out_of_range_tile_rejected(self, small_wall):
        with pytest.raises(IndexError):
            compose_wall(small_wall, {(5, 0): Framebuffer(64, 36)})

    def test_downscale(self, small_wall):
        full = compose_wall(small_wall, _buffers(small_wall), scale=1.0)
        half = compose_wall(small_wall, _buffers(small_wall), scale=0.5)
        assert half.shape[0] == (full.shape[0] + 1) // 2

    def test_scale_validation(self, small_wall):
        with pytest.raises(ValueError):
            compose_wall(small_wall, {}, scale=0.0)

    @pytest.mark.parametrize("scale", [1.0, 1 / 2, 1 / 3, 0.3, 1 / 4, 0.1])
    @pytest.mark.parametrize("tiles", ["every", "one-missing", "none"])
    def test_bytes_match_whole_image_broadcast(self, scale, tiles):
        """The row fill is byte-identical to broadcasting the bezel color
        over every pixel, at every stride and with absent tiles."""
        wall = DisplayWall(
            cols=3, rows=2, panel_width=0.2, panel_height=0.1125,
            panel_px_width=41, panel_px_height=23,
        )
        rng = np.random.default_rng(3)
        buffers = {}
        for key in _buffers(wall):
            fb = Framebuffer(wall.panel_px_width, wall.panel_px_height)
            fb.data[...] = rng.uniform(size=fb.data.shape)
            buffers[key] = fb
        if tiles == "one-missing":
            del buffers[(1, 1)]
        elif tiles == "none":
            buffers = {}
        got = compose_wall(wall, buffers, scale=scale)
        want = _compose_by_broadcast(wall, buffers, scale)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestStereoPair:
    def test_side_by_side(self):
        l = np.zeros((4, 6, 3))
        r = np.ones((4, 6, 3))
        pair = stereo_pair_side_by_side(l, r)
        assert pair.shape == (4, 12, 3)
        assert pair[0, 0, 0] == 0.0 and pair[0, 11, 0] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            stereo_pair_side_by_side(np.zeros((4, 6, 3)), np.zeros((4, 7, 3)))


class TestAnaglyph:
    def test_channels(self):
        left = np.zeros((2, 2, 3), dtype=np.float32)
        left[..., 0] = 1.0  # pure red left image: luminance 0.299
        right = np.zeros((2, 2, 3), dtype=np.float32)
        right[..., 1] = 1.0  # pure green right: luminance 0.587
        out = anaglyph(left, right)
        np.testing.assert_allclose(out[..., 0], 0.299, atol=1e-5)
        np.testing.assert_allclose(out[..., 1], 0.587, atol=1e-5)
        np.testing.assert_allclose(out[..., 2], 0.587, atol=1e-5)

    def test_identical_eyes_grayscale(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(3, 3, 3)).astype(np.float32)
        out = anaglyph(img, img)
        np.testing.assert_allclose(out[..., 0], out[..., 1], atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            anaglyph(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)))
