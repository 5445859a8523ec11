"""Tests for cell rasterization."""

import numpy as np
import pytest

from repro.display.coords import CoordinateMapper
from repro.display.tile import Tile
from repro.render.color import named_color
from repro.render.framebuffer import Framebuffer
from repro.render.raster import CellRenderer, CellStyle
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection


@pytest.fixture()
def tile():
    return Tile(0, 0, 0.0, 0.0, 0.4, 0.3, 400, 300)


@pytest.fixture()
def cell_rect():
    return (0.0, 0.0, 0.2, 0.15)


@pytest.fixture()
def renderer(tile):
    return CellRenderer(tile, SpaceTimeProjection(time_scale=0.001))


@pytest.fixture()
def mapper(arena, cell_rect):
    return CoordinateMapper(arena, cell_rect)


@pytest.fixture()
def placement(renderer, mapper):
    return renderer.place(mapper)


def _polyline(renderer, traj, mapper, eye):
    return renderer.cell_polyline(traj, mapper, eye, renderer.place(mapper))


class TestPlacement:
    def test_boxes_follow_the_unclipped_origin(self, renderer, arena):
        """The clipped and padded boxes are the placement's integers:
        the box ends at the ceiling of the cell's far corner."""
        rect = (-0.05, 0.1005, 0.15, 0.2504)  # off the left edge, fractional rows
        placement = renderer.place(CoordinateMapper(arena, rect))
        assert (placement.x0, placement.y0) == (-50, 100)
        assert placement.x0 + placement.geometry.width == 150
        assert placement.y0 + placement.geometry.height == 251
        assert renderer.pixel_box(placement) == (0, 100, 150, 251)
        assert renderer.pixel_box(placement, pad=8) == (0, 92, 158, 259)


class TestBackground:
    def test_group_color_dimmed(self, renderer, tile, placement):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_background(fb, placement, (1.0, 0.0, 0.0))
        # inside the cell: dimmed red
        assert fb.data[50, 50, 0] == pytest.approx(CellStyle().background_dim, abs=1e-5)
        # outside the cell: untouched
        assert fb.data[250, 350, 0] == 0.0

    def test_none_color_uses_style_background(self, renderer, tile, placement):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_background(fb, placement, None)
        np.testing.assert_allclose(
            fb.data[50, 50], CellStyle().background, atol=1e-6
        )


class TestArenaRim:
    def test_rim_pixels_lit(self, renderer, tile, mapper):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_arena_rim(fb, mapper)
        center = tile.wall_to_pixel(mapper.arena_to_wall(np.zeros((1, 2))))[0]
        radius_px = mapper.scale * mapper.arena.radius * tile.pixels_per_meter[0]
        on_ring = fb.data[int(center[1]), int(center[0] + radius_px)]
        assert on_ring.max() > 0.2
        at_center = fb.data[int(center[1]), int(center[0])]
        assert at_center.max() == 0.0


class TestTrajectoryDrawing:
    def test_trajectory_lights_pixels(self, renderer, tile, mapper, simple_traj, placement):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        renderer.draw_trajectory(
            fb, simple_traj, placement, _polyline(renderer, simple_traj, mapper, Eye.LEFT)
        )
        assert (fb.data.max(axis=2) > 0.2).sum() > 20

    def test_eye_views_differ_with_depth(self, tile, mapper, simple_traj):
        # exaggerate depth so per-eye shear exceeds a pixel
        renderer = CellRenderer(tile, SpaceTimeProjection(time_scale=0.05))
        placement = renderer.place(mapper)
        fb_l = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        fb_r = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        for fb, eye in ((fb_l, Eye.LEFT), (fb_r, Eye.RIGHT)):
            renderer.draw_trajectory(
                fb, simple_traj, placement, _polyline(renderer, simple_traj, mapper, eye)
            )
        assert not np.allclose(fb_l.data, fb_r.data)

    def test_highlights_respect_mask(self, renderer, tile, mapper, simple_traj, placement):
        polyline = _polyline(renderer, simple_traj, mapper, Eye.LEFT)
        fb_none = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        mask = np.zeros(simple_traj.n_samples - 1, dtype=bool)
        renderer.draw_highlights(fb_none, simple_traj, mask, "red", placement, polyline)
        assert fb_none.data.sum() == 0.0
        fb_some = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        mask[:3] = True
        renderer.draw_highlights(fb_some, simple_traj, mask, "red", placement, polyline)
        assert fb_some.data[..., 0].sum() > 0

    def test_highlight_mask_shape_checked(self, renderer, tile, mapper, simple_traj, placement):
        fb = Framebuffer(tile.px_width, tile.px_height)
        with pytest.raises(ValueError):
            renderer.draw_highlights(
                fb, simple_traj, np.zeros(3, dtype=bool), "red", placement,
                _polyline(renderer, simple_traj, mapper, Eye.LEFT),
            )


class TestBrushFootprint:
    def test_footprint_composites(self, renderer, tile, mapper, placement):
        fb = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        centers = np.array([[0.0, 0.0]])
        radii = np.array([0.1])
        layer = renderer.draw_brush_footprint(fb, placement, centers, radii, "red")
        assert layer is not None
        # the layer is the coverage (peak 1) times the brush alpha
        assert layer.alpha.max() == pytest.approx(renderer.style.brush_alpha)
        np.testing.assert_array_equal(layer.keep, 1.0 - layer.alpha)
        center_px = tile.wall_to_pixel(mapper.arena_to_wall(np.zeros((1, 2))))[0]
        assert fb.data[int(center_px[1]), int(center_px[0]), 0] > 0.1

    def test_precomputed_reuse_matches(self, renderer, tile, placement):
        """Blending the returned layer again at the cell's box origin
        redraws the footprint byte for byte."""
        centers = np.array([[0.1, -0.1]])
        radii = np.array([0.08])
        fb1 = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        layer = renderer.draw_brush_footprint(fb1, placement, centers, radii, "red")
        fb2 = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        fb2.blend(layer, named_color("red"), placement.x0, placement.y0)
        np.testing.assert_array_equal(fb1.data, fb2.data)

    def test_empty_centers_none(self, renderer, tile, placement):
        fb = Framebuffer(tile.px_width, tile.px_height)
        out = renderer.draw_brush_footprint(
            fb, placement, np.empty((0, 2)), np.empty(0), "red"
        )
        assert out is None

    def test_same_geometry_same_bytes_on_any_tile(self, arena):
        """Coverage is a pure function of the footprint geometry: the
        same cell placed on another tile, where its absolute pixel
        coordinates differ, yields the identical key and bytes."""
        centers, radii = np.array([[0.1, -0.1]]), np.array([0.08])
        coverages, keys = [], []
        for tile in (Tile(0, 0, 0.0, 0.0, 0.25, 0.25, 256, 256),
                     Tile(3, 1, 0.75, 0.25, 0.25, 0.25, 256, 256)):
            rect = (tile.x + 0.0625, tile.y + 0.125, tile.x + 0.1875, tile.y + 0.1875)
            r = CellRenderer(tile, SpaceTimeProjection())
            geometry = r.place(CoordinateMapper(arena, rect)).geometry
            keys.append(geometry)
            coverages.append(r.brush_footprint_coverage(geometry, centers, radii))
        assert keys[0] == keys[1]
        np.testing.assert_array_equal(coverages[0], coverages[1])

    def test_phase_is_part_of_the_key(self, renderer, arena):
        """Two cells of the same width whose edges fall at different
        sub-pixel phases cover different pixel boxes and get different
        keys."""
        a = (0.10, 0.0, 0.2002, 0.15)   # 100.2 px wide, phase ~0
        b = (0.1005, 0.0, 0.2007, 0.15)  # same width, phase ~0.5
        ga = renderer.place(CoordinateMapper(arena, a)).geometry
        gb = renderer.place(CoordinateMapper(arena, b)).geometry
        assert ga.width == gb.width == 101
        assert ga.phase_x != gb.phase_x
        assert ga != gb

    def test_precomputed_clips_at_tile_edge(self, renderer, arena, tile):
        """A cell straddling the tile's left edge composites only its
        on-tile part, from the retained layer of its whole pixel box."""
        rect = (-0.05, 0.0, 0.15, 0.15)
        placement = renderer.place(CoordinateMapper(arena, rect))
        centers, radii = np.array([[0.0, 0.0]]), np.array([2 * arena.radius])
        fb1 = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        layer = renderer.draw_brush_footprint(fb1, placement, centers, radii, "red")
        assert layer.shape == (150, 200)
        assert layer.alpha.shape == (150, 200, 1)  # the whole box, on the tile or not
        fb2 = Framebuffer(tile.px_width, tile.px_height, (0, 0, 0))
        assert (placement.x0, placement.y0) == (-50, 0)
        fb2.blend(layer, named_color("red"), placement.x0, placement.y0)
        np.testing.assert_array_equal(fb1.data, fb2.data)
        assert fb1.data[75, 0, 0] > 0 and fb1.data[75, 151:, 0].max() == 0

    def test_coverage_localized_to_brush(self, renderer, placement):
        centers = np.array([[-0.4, 0.0]])  # west edge
        radii = np.array([0.05])
        cov = renderer.brush_footprint_coverage(placement.geometry, centers, radii)
        assert cov.shape == (placement.geometry.height, placement.geometry.width)
        h, w = cov.shape
        assert cov[:, : w // 2].sum() > 0       # west half covered
        assert cov[:, 3 * w // 4 :].sum() == 0  # east quarter untouched
