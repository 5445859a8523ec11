"""Tests for the splat-based line rasterization kernels."""

import numpy as np
import pytest

from repro.render.lines import disc_kernel, resample_segments, splat_points, splat_polylines


class TestResampleSegments:
    def test_spacing(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[10.0, 0.0]])
        pts, _ = resample_segments(a, b, step=1.0)
        # endpoints included, spacing <= step
        assert len(pts) >= 11
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert gaps.max() <= 1.0 + 1e-9

    def test_endpoints_present(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        pts, _ = resample_segments(a, b, step=0.7)
        np.testing.assert_allclose(pts[0], a[0])
        np.testing.assert_allclose(pts[-1], b[0])

    def test_values_carried(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        vals = np.array([0.25, 0.75])
        pts, v = resample_segments(a, b, step=0.5, values=vals)
        assert set(np.unique(v)) == {0.25, 0.75}
        assert len(v) == len(pts)

    def test_empty_input(self):
        pts, v = resample_segments(np.empty((0, 2)), np.empty((0, 2)), 0.5)
        assert len(pts) == 0 and v is None

    def test_zero_length_segment(self):
        a = np.array([[1.0, 1.0]])
        pts, _ = resample_segments(a, a, step=0.5)
        assert len(pts) == 2  # degenerate segment still emits endpoints

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            resample_segments(np.zeros((1, 2)), np.ones((1, 2)), 0.0)


class TestDiscKernel:
    def test_width_one_single_tap(self):
        offs, w = disc_kernel(1.0)
        assert offs.shape == (1, 2)
        assert w[0] == 1.0

    def test_built_once_per_width_and_read_only(self):
        offs, w = disc_kernel(2.4)
        again = disc_kernel(2.4)
        assert again[0] is offs and again[1] is w
        assert not offs.flags.writeable and not w.flags.writeable

    def test_width_three_covers_disc(self):
        offs, w = disc_kernel(3.0)
        assert len(offs) > 4
        radii = np.linalg.norm(offs, axis=1)
        assert radii.max() < 2.0  # zero-weight rim taps excluded
        assert np.all(w > 0)


class TestSplatPoints:
    def test_center_pixel_gets_full_weight(self):
        cov = np.zeros((5, 5))
        splat_points(cov, np.array([[2.0, 2.0]]))  # exactly on pixel corner
        assert cov.sum() == pytest.approx(1.0)

    def test_bilinear_split(self):
        cov = np.zeros((5, 5))
        splat_points(cov, np.array([[2.5, 2.0]]))
        assert cov[2, 2] == pytest.approx(0.5)
        assert cov[2, 3] == pytest.approx(0.5)

    def test_out_of_bounds_clipped(self):
        cov = np.zeros((4, 4))
        splat_points(cov, np.array([[-5.0, 2.0], [10.0, 2.0]]))
        assert cov.sum() == 0.0

    def test_edge_partial_weight(self):
        cov = np.zeros((4, 4))
        splat_points(cov, np.array([[-0.5, 1.0]]))
        # half the bilinear mass lands at x=-1 (clipped), half at x=0
        assert cov.sum() == pytest.approx(0.5)

    def test_weights_and_colors(self):
        cov = np.zeros((4, 4))
        rgb = np.zeros((4, 4, 3))
        colors = np.array([[1.0, 0.0, 0.0]])
        splat_points(cov, np.array([[1.0, 1.0]]), weights=2.0, rgb_accum=rgb, colors=colors)
        assert cov[1, 1] == pytest.approx(2.0)
        np.testing.assert_allclose(rgb[1, 1], [2.0, 0.0, 0.0])


class TestSplatPolylines:
    def test_horizontal_line_coverage(self):
        # line through pixel centers of row 4: full coverage lands there
        cov = np.zeros((9, 20))
        a = np.array([[2.0, 4.0]])
        b = np.array([[17.0, 4.0]])
        splat_polylines(cov, a, b, width=1.0, step=0.5)
        body = cov[4, 5:15]
        assert body.mean() > 0.9
        # far rows untouched
        assert cov[0].sum() == 0.0 and cov[8].sum() == 0.0

    def test_row_straddling_line_splits_coverage(self):
        # a line at y=4.5 antialiases evenly into rows 4 and 5
        cov = np.zeros((9, 20))
        splat_polylines(
            cov, np.array([[2.0, 4.5]]), np.array([[17.0, 4.5]]), width=1.0, step=0.5
        )
        np.testing.assert_allclose(cov[4, 5:15], 0.5, atol=0.05)
        np.testing.assert_allclose(cov[5, 5:15], 0.5, atol=0.05)

    def test_coverage_roughly_step_invariant(self):
        a = np.array([[2.0, 4.5]])
        b = np.array([[17.0, 4.5]])
        totals = []
        for step in (0.25, 0.5, 1.0):
            cov = np.zeros((9, 20))
            splat_polylines(cov, a, b, width=1.0, step=step)
            totals.append(cov.sum())
        assert max(totals) / min(totals) < 1.8

    def test_wider_line_more_coverage(self):
        a = np.array([[2.0, 10.0]])
        b = np.array([[17.0, 10.0]])
        cov1 = np.zeros((21, 20))
        cov3 = np.zeros((21, 20))
        splat_polylines(cov1, a, b, width=1.0)
        splat_polylines(cov3, a, b, width=3.0)
        assert (cov3 > 0.05).sum() > (cov1 > 0.05).sum()

    def test_gradient_colors(self):
        from repro.render.color import time_gradient

        cov = np.zeros((5, 30))
        rgb = np.zeros((5, 30, 3))
        a = np.array([[1.0, 2.0], [15.0, 2.0]])
        b = np.array([[14.0, 2.0], [28.0, 2.0]])
        splat_polylines(
            cov, a, b,
            seg_values=np.array([0.0, 1.0]),
            rgb_accum=rgb,
            value_to_rgb=time_gradient,
        )
        hit = cov > 1e-9
        mean = np.zeros_like(rgb)
        mean[hit] = rgb[hit] / cov[hit][:, None]
        # early half is blue-dominant, late half red-dominant
        early = mean[2, 3]
        late = mean[2, 25]
        assert early[2] > early[0]
        assert late[0] > late[2]

    def test_empty_noop(self):
        cov = np.zeros((4, 4))
        splat_polylines(cov, np.empty((0, 2)), np.empty((0, 2)))
        assert cov.sum() == 0.0
