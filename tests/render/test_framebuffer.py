"""Tests for framebuffers."""

import numpy as np
import pytest

from repro.render.framebuffer import Framebuffer


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 10)

    def test_clear_color(self):
        fb = Framebuffer(4, 3, background=(0.5, 0.25, 0.0))
        np.testing.assert_allclose(fb.data[0, 0], [0.5, 0.25, 0.0])

    def test_fill_rect_clipped(self):
        fb = Framebuffer(8, 8, background=(0, 0, 0))
        fb.fill_rect(-5, -5, 3, 3, (1, 0, 0))
        assert fb.data[0, 0, 0] == 1.0
        assert fb.data[3, 3, 0] == 0.0

    def test_fill_rect_degenerate(self):
        fb = Framebuffer(8, 8)
        before = fb.data.copy()
        fb.fill_rect(5, 5, 5, 9, (1, 1, 1))
        np.testing.assert_array_equal(fb.data, before)

    def test_to_uint8(self):
        fb = Framebuffer(2, 2, background=(1.0, 0.0, 0.5))
        u = fb.to_uint8()
        assert u.dtype == np.uint8
        assert u[0, 0, 0] == 255
        assert u[0, 0, 2] == 128

    def test_copy_independent(self):
        fb = Framebuffer(2, 2)
        cp = fb.copy()
        cp.data[0, 0] = 1.0
        assert fb.data[0, 0, 0] != 1.0


class TestCompositing:
    def test_full_coverage_replaces(self):
        fb = Framebuffer(2, 2, background=(0, 0, 0))
        fb.composite(np.ones((2, 2)), (1.0, 0.0, 0.0))
        np.testing.assert_allclose(fb.data[..., 0], 1.0)

    def test_half_coverage_blends(self):
        fb = Framebuffer(2, 2, background=(0, 0, 0))
        fb.composite(np.full((2, 2), 0.5), (1.0, 1.0, 1.0))
        np.testing.assert_allclose(fb.data, 0.5)

    def test_coverage_clipped_to_one(self):
        fb = Framebuffer(2, 2, background=(0, 0, 0))
        fb.composite(np.full((2, 2), 7.0), (1.0, 0.0, 0.0))
        assert fb.data.max() == pytest.approx(1.0)

    def test_shape_mismatch(self):
        fb = Framebuffer(3, 2)
        with pytest.raises(ValueError):
            fb.composite(np.ones((2, 3)), np.ones((3, 3, 3)))

    def test_composite_rgb(self):
        fb = Framebuffer(2, 2, background=(0, 0, 0))
        rgb = np.zeros((2, 2, 3))
        rgb[0, 0] = [0.0, 1.0, 0.0]
        cov = np.zeros((2, 2))
        cov[0, 0] = 1.0
        fb.composite(cov, rgb)
        np.testing.assert_allclose(fb.data[0, 0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(fb.data[1, 1], [0.0, 0.0, 0.0])


class TestCircleOutline:
    def test_ring_drawn(self):
        fb = Framebuffer(41, 41, background=(0, 0, 0))
        fb.draw_circle_outline(20, 20, 15, (1, 1, 1))
        # on the ring
        assert fb.data[20, 35, 0] > 0.5
        # center untouched
        assert fb.data[20, 20, 0] == 0.0

    def test_clipped_circle(self):
        fb = Framebuffer(10, 10, background=(0, 0, 0))
        fb.draw_circle_outline(0, 0, 50, (1, 1, 1))  # entirely off-ring inside
        # no crash; nothing inside the buffer is on the ring
        assert fb.data.max() == 0.0

    def test_zero_radius_noop(self):
        fb = Framebuffer(5, 5)
        before = fb.data.copy()
        fb.draw_circle_outline(2, 2, 0.0, (1, 1, 1))
        np.testing.assert_array_equal(fb.data, before)
