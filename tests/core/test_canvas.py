"""Tests for the shared brush canvas."""

import numpy as np
import pytest

from repro.core.brush import BrushStroke
from repro.core.canvas import BrushCanvas


def _stroke(x=0.0, y=0.0, r=0.1, color="red"):
    return BrushStroke(np.array([[x, y]]), r, color)


class TestEditing:
    def test_add_and_count(self):
        c = BrushCanvas()
        assert c.is_empty()
        c.add(_stroke())
        c.add(_stroke(color="green"))
        assert c.n_strokes == 2
        assert not c.is_empty()

    def test_type_check(self):
        with pytest.raises(TypeError):
            BrushCanvas().add("stroke")

    def test_clear_all(self):
        c = BrushCanvas()
        c.add(_stroke())
        c.clear()
        assert c.is_empty()

    def test_clear_one_color(self):
        c = BrushCanvas()
        c.add(_stroke(color="red"))
        c.add(_stroke(color="green"))
        c.clear("red")
        assert c.colors() == ["green"]

    def test_version_increments(self):
        c = BrushCanvas()
        v0 = c.version
        c.add(_stroke())
        assert c.version > v0
        v1 = c.version
        c.clear()
        assert c.version > v1

    def test_colors_in_first_use_order(self):
        c = BrushCanvas()
        c.add(_stroke(color="green"))
        c.add(_stroke(color="red"))
        c.add(_stroke(color="green"))
        assert c.colors() == ["green", "red"]


class TestStamps:
    def test_stamps_concatenated(self):
        c = BrushCanvas()
        c.add(BrushStroke(np.zeros((3, 2)), 0.1, "red"))
        c.add(BrushStroke(np.ones((2, 2)), 0.2, "red"))
        centers, radii = c.stamps_of("red")
        assert centers.shape == (5, 2)
        np.testing.assert_array_equal(radii, [0.1, 0.1, 0.1, 0.2, 0.2])

    def test_stamps_empty_color(self):
        centers, radii = BrushCanvas().stamps_of("red")
        assert len(centers) == 0 and len(radii) == 0

    def test_bounding_box(self):
        c = BrushCanvas()
        c.add(_stroke(0.0, 0.0, 0.1, "red"))
        c.add(_stroke(1.0, 1.0, 0.2, "green"))
        lo, hi = c.bounding_box()
        np.testing.assert_allclose(lo, [-0.1, -0.1])
        np.testing.assert_allclose(hi, [1.2, 1.2])
        lo_r, hi_r = c.bounding_box("red")
        np.testing.assert_allclose(hi_r, [0.1, 0.1])

    def test_bounding_box_empty(self):
        assert BrushCanvas().bounding_box() is None


class TestHitMask:
    def test_segment_hits(self):
        c = BrushCanvas()
        c.add(_stroke(0.0, 0.0, 0.5, "red"))
        a = np.array([[-2.0, 0.0], [-2.0, 3.0], [0.1, 0.1]])
        b = np.array([[2.0, 0.0], [2.0, 3.0], [0.2, 0.1]])
        mask = c.segment_hit_mask("red", a, b)
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_color_isolation(self):
        c = BrushCanvas()
        c.add(_stroke(0.0, 0.0, 0.5, "red"))
        a = np.array([[-0.1, 0.0]])
        b = np.array([[0.1, 0.0]])
        assert c.segment_hit_mask("red", a, b)[0]
        assert not c.segment_hit_mask("green", a, b)[0]

    def test_chunking_invariant(self):
        rng = np.random.default_rng(0)
        c = BrushCanvas()
        c.add(BrushStroke(rng.uniform(-1, 1, (7, 2)), 0.3, "red"))
        a = rng.uniform(-2, 2, (500, 2))
        b = a + rng.normal(0, 0.1, (500, 2))
        full = c.segment_hit_mask("red", a, b, chunk=1 << 20)
        tiny = c.segment_hit_mask("red", a, b, chunk=64)
        np.testing.assert_array_equal(full, tiny)
