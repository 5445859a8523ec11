"""Bit-exact oracle tests for the splat and composite kernels.

The splat kernel scatters every (kernel offset, bilinear tap, sample)
contribution of a call through one ``np.bincount`` per channel; the
composite blends only the bounding box of the positive coverage.  Both
must produce the same bytes as the sequential code they replaced,
which lives here as the oracle:

* ``splat_polylines_oracle`` calls ``splat_points_oracle`` once per
  disc-kernel offset, and that issues one ``np.add.at`` per bilinear
  tap (plus one on the RGB accumulator);
* ``composite_oracle`` blends every on-buffer pixel of the map; the
  composite and a prepared layer (``CoverageLayer.prepare``) blended
  with ``Framebuffer.blend``, once or again at another offset, must
  match it.

Hypothesis drives random boxes, samples, widths and coverage maps
through both; directed cases pin the corners a random sweep may
under-hit: line widths at and below one pixel, samples on pixel edges,
off the box and at negative coordinates, zero-length segments, empty
input, and empty, sparse and full coverage.
"""

from __future__ import annotations

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.color import time_gradient
from repro.render.framebuffer import CoverageLayer, Framebuffer
from repro.render.lines import disc_kernel, resample_segments, splat_points, splat_polylines

# -- oracles: the sequential kernels -------------------------------------------


def splat_points_oracle(coverage, points, *, weights=1.0, rgb_accum=None, colors=None):
    """One ``np.add.at`` per bilinear tap, taps in (0,0), (1,0), (0,1), (1,1) order."""
    h, w = coverage.shape
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return
    wts = np.broadcast_to(np.asarray(weights, dtype=np.float64), (len(points),))
    x = points[:, 0]
    y = points[:, 1]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0
    for dx, dy, bw in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xi = x0 + dx
        yi = y0 + dy
        ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        if not ok.any():
            continue
        contrib = bw[ok] * wts[ok]
        np.add.at(coverage, (yi[ok], xi[ok]), contrib)
        if rgb_accum is not None and colors is not None:
            np.add.at(rgb_accum, (yi[ok], xi[ok]), contrib[:, None] * colors[ok])


def splat_polylines_oracle(coverage, a, b, *, width=1.5, step=0.7, seg_values=None,
                           rgb_accum=None, value_to_rgb=None):
    """One ``splat_points_oracle`` call per disc-kernel offset."""
    points, vals = resample_segments(a, b, step, seg_values)
    if len(points) == 0:
        return
    offsets, kweights = disc_kernel(width)
    norm = step / max(1e-9, float(kweights.max()))
    colors = None
    if vals is not None and value_to_rgb is not None and rgb_accum is not None:
        colors = np.asarray(value_to_rgb(vals), dtype=np.float64)
    for (dx, dy), kw in zip(offsets, kweights, strict=True):
        splat_points_oracle(
            coverage, points + (dx, dy), weights=kw * norm,
            rgb_accum=rgb_accum if colors is not None else None, colors=colors,
        )


def composite_oracle(data, coverage, color, x0=0, y0=0):
    """Blend every pixel of the map's on-buffer part, zero alpha or not."""
    h, w = coverage.shape
    cx0, cy0 = max(x0, 0), max(y0, 0)
    cx1, cy1 = min(x0 + w, data.shape[1]), min(y0 + h, data.shape[0])
    if cx1 <= cx0 or cy1 <= cy0:
        return
    crop = (slice(cy0 - y0, cy1 - y0), slice(cx0 - x0, cx1 - x0))
    c = np.asarray(color, dtype=np.float32)
    if c.ndim == 3:
        c = c[crop]
    a = np.clip(coverage[crop], 0.0, 1.0).astype(np.float32)[..., None]
    region = data[cy0:cy1, cx0:cx1]
    region *= 1.0 - a
    region += a * c


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"max |diff| {np.abs(got - want).max()}"


# -- strategies ----------------------------------------------------------------

#: Coordinates from well off the top-left of a box to well past its
#: bottom-right; half of them on pixel edges.
_coord = st.one_of(
    st.floats(-6.0, 22.0, allow_nan=False, width=64),
    st.integers(-6, 22).map(float),
)
_width = st.one_of(st.sampled_from([0.5, 1.0, 1.6, 2.4, 3.0]), st.floats(0.0, 3.5))
_step = st.one_of(st.sampled_from([0.25, 0.5, 0.7, 1.0]), st.floats(0.1, 2.0))


@st.composite
def segments(draw, max_segments: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Random segments; some collapsed to zero length."""
    n = draw(st.integers(0, max_segments))
    a = draw(hnp.arrays(np.float64, (n, 2), elements=_coord))
    b = draw(hnp.arrays(np.float64, (n, 2), elements=_coord))
    collapse = draw(hnp.arrays(bool, (n,)))
    b[collapse] = a[collapse]
    return a, b


def _splat_both(shape, a, b, *, with_rgb, **kw):
    """Run the kernel and the oracle on zeroed buffers; returns both."""
    out = []
    for fn in (splat_polylines, splat_polylines_oracle):
        cov = np.zeros(shape)
        rgb = np.zeros((*shape, 3)) if with_rgb else None
        values = np.linspace(0.0, 1.0, len(a)) if with_rgb else None
        fn(cov, a, b, seg_values=values, rgb_accum=rgb,
           value_to_rgb=time_gradient if with_rgb else None, **kw)
        out.append((cov, rgb))
    return out


# -- splat kernel --------------------------------------------------------------


@given(st.integers(1, 16), st.integers(1, 16), segments(), _width, _step, st.booleans())
@settings(max_examples=80, deadline=None)
def test_splat_polylines_matches_sequential_oracle(h, w, segs, width, step, with_rgb):
    (cov, rgb), (cov_o, rgb_o) = _splat_both(
        (h, w), *segs, width=width, step=step, with_rgb=with_rgb
    )
    assert_same_bytes(cov, cov_o)
    if with_rgb:
        assert_same_bytes(rgb, rgb_o)


@given(
    st.integers(1, 12), st.integers(1, 12),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 30), st.just(2)), elements=_coord),
    st.one_of(st.floats(0.0, 3.0), st.none()),
)
@settings(max_examples=60, deadline=None)
def test_splat_points_matches_sequential_oracle(h, w, points, scalar_weight):
    rng = np.random.default_rng(len(points))
    weights = rng.uniform(0.0, 2.0, len(points)) if scalar_weight is None else scalar_weight
    colors = rng.uniform(0.0, 1.0, (len(points), 3))
    got, want = np.zeros((h, w)), np.zeros((h, w))
    rgb, rgb_o = np.zeros((h, w, 3)), np.zeros((h, w, 3))
    splat_points(got, points, weights=weights, rgb_accum=rgb, colors=colors)
    splat_points_oracle(want, points, weights=weights, rgb_accum=rgb_o, colors=colors)
    assert_same_bytes(got, want)
    assert_same_bytes(rgb, rgb_o)


#: A polyline that enters the box across its left edge at a negative
#: coordinate, runs along a pixel edge, doubles back through a sub-pixel
#: zig-zag and leaves past the bottom-right corner.
_POLY = np.array([[-3.5, 2.0], [0.0, 2.0], [6.0, 2.0], [6.3, 2.7], [5.1, 3.2], [13.0, 11.5]])


@pytest.mark.parametrize("width", [0.0, 0.5, 1.0, 1.6, 2.4, 3.0])
@pytest.mark.parametrize("with_rgb", [False, True])
def test_widths_on_a_clipped_polyline(width, with_rgb):
    (cov, rgb), (cov_o, rgb_o) = _splat_both(
        (9, 11), _POLY[:-1], _POLY[1:], width=width, step=0.7, with_rgb=with_rgb
    )
    assert cov.sum() > 0
    assert_same_bytes(cov, cov_o)
    if with_rgb:
        assert_same_bytes(rgb, rgb_o)


@pytest.mark.parametrize(
    "points",
    [
        np.array([[0.0, 0.0], [3.0, 2.0], [7.0, 4.0], [8.0, 5.0], [-1.0, -1.0]]),  # pixel edges
        np.array([[-0.5, 1.0], [1.0, -0.25], [8.5, 2.0], [3.0, 5.5]]),  # half off the box
        np.array([[-1e6, 2.0], [1e6, 2.0], [2.0, -1e6], [2.0, 1e6], [1e9, -1e9]]),  # far off
        np.array([[2.25, 3.75]] * 4),  # one spot, repeated
    ],
    ids=["pixel-edges", "box-edges", "far-off", "repeated"],
)
def test_points_at_edges_and_off_the_box(points):
    got, want = np.zeros((6, 8)), np.zeros((6, 8))
    splat_points(got, points, weights=0.37)
    splat_points_oracle(want, points, weights=0.37)
    assert_same_bytes(got, want)


def test_samples_a_hair_below_pixel_edges():
    """``floor(x + dx)`` is not always ``floor(x) + dx``: a sample just
    below an edge lands on it once a kernel offset is added."""
    below = np.nextafter(np.array([1.0, 2.0, 3.0, 4.0]), -np.inf)
    pts = np.stack([below, np.full(4, 2.5)], axis=1)
    pts = np.vstack([pts, pts[:, ::-1], [[-1e-17, -1e-17]]])
    for width in (1.6, 2.4, 3.0):
        (cov, rgb), (cov_o, rgb_o) = _splat_both(
            (7, 7), pts, pts.copy(), width=width, step=0.7, with_rgb=True
        )
        assert_same_bytes(cov, cov_o)
        assert_same_bytes(rgb, rgb_o)


def test_zero_length_segments():
    a = np.array([[2.5, 2.5], [4.0, 1.0], [-2.0, 3.0]])
    (cov, rgb), (cov_o, rgb_o) = _splat_both((6, 6), a, a.copy(), width=2.4, step=0.7,
                                             with_rgb=True)
    assert cov.sum() > 0
    assert_same_bytes(cov, cov_o)
    assert_same_bytes(rgb, rgb_o)


def test_empty_input_leaves_buffers_untouched():
    cov, rgb = np.zeros((4, 5)), np.zeros((4, 5, 3))
    splat_polylines(cov, np.empty((0, 2)), np.empty((0, 2)), seg_values=np.empty(0),
                    rgb_accum=rgb, value_to_rgb=time_gradient)
    splat_points(cov, np.empty((0, 2)), rgb_accum=rgb, colors=np.empty((0, 3)))
    assert not cov.any() and not rgb.any()


# -- composite -----------------------------------------------------------------


def _composite_both(buffer_hw, coverage, color, x0, y0):
    rng = np.random.default_rng(coverage.size)
    # framebuffers hold no negative zero: every color is >= +0
    start = rng.uniform(0.0, 1.0, (*buffer_hw, 3)).astype(np.float32)
    fb = Framebuffer(buffer_hw[1], buffer_hw[0])
    fb.data[...] = start
    fb.composite(coverage, color, x0, y0)
    want = start.copy()
    composite_oracle(want, coverage, color, x0, y0)
    return fb.data, want


def _blend_both(buffer_hw, coverage, color, offsets):
    """A buffer with one prepared layer blended at every offset, and the
    oracle's buffer with the map composited at each."""
    rng = np.random.default_rng(coverage.size + 1)
    start = rng.uniform(0.0, 1.0, (*buffer_hw, 3)).astype(np.float32)
    fb = Framebuffer(buffer_hw[1], buffer_hw[0])
    fb.data[...] = start
    before = coverage.copy()
    layer = CoverageLayer.prepare(coverage)
    assert coverage.tobytes() == before.tobytes()  # prepare only reads the map
    assert not layer.alpha.flags.writeable and not layer.keep.flags.writeable
    want = start.copy()
    for x0, y0 in offsets:
        fb.blend(layer, color, x0, y0)
        composite_oracle(want, coverage, color, x0, y0)
    return fb.data, want


@st.composite
def coverage_maps(draw) -> np.ndarray:
    """Maps mostly zero, with a few entries below 0, inside (0, 1] and above 1."""
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    values = st.one_of(
        st.just(0.0), st.just(0.0), st.just(0.0),
        st.floats(-0.5, 0.0), st.floats(0.0, 1.0), st.floats(1.0, 3.0),
    )
    return draw(hnp.arrays(np.float64, (h, w), elements=values))


@given(
    st.integers(1, 12), st.integers(1, 12), coverage_maps(),
    st.integers(-6, 12), st.integers(-6, 12), st.booleans(),
    st.integers(-6, 12), st.integers(-6, 12),
)
@settings(max_examples=120, deadline=None)
def test_cropped_composite_matches_full_box(bh, bw, coverage, x0, y0, per_pixel, x1, y1):
    rng = np.random.default_rng(7)
    color = (rng.uniform(0, 1, (*coverage.shape, 3)).astype(np.float32) if per_pixel
             else (0.9, 0.2, 0.45))
    got, want = _composite_both((bh, bw), coverage, color, x0, y0)
    assert_same_bytes(got, want)
    # blend(prepare(map)): once, and the same layer again elsewhere
    got, want = _blend_both((bh, bw), coverage, color, [(x0, y0)])
    assert_same_bytes(got, want)
    got, want = _blend_both((bh, bw), coverage, color, [(x0, y0), (x1, y1)])
    assert_same_bytes(got, want)


@pytest.mark.parametrize("kind", ["empty", "negative-only", "sparse", "full"])
def test_prepared_layer_blends_off_every_edge(kind):
    """One prepared layer blended at offsets off each edge and corner of
    the buffer, and wholly off it, equals the full-box oracle."""
    rng = np.random.default_rng(13)
    cov = np.zeros((7, 9))
    if kind == "negative-only":
        cov[2:4, 3:6] = -0.5
    elif kind == "sparse":
        cov[0, 2], cov[6, 8], cov[4, 0] = 0.3, 1e-12, 1.7
    elif kind == "full":
        cov[:] = rng.uniform(0.01, 1.0, cov.shape)
    offsets = [(-5, 2), (2, -4), (8, 2), (2, 6), (-6, -5), (9, 7), (-9, 0), (0, 10), (1, 1)]
    rgb = rng.uniform(0.0, 1.0, (*cov.shape, 3)).astype(np.float32)
    for color in ((0.2, 0.6, 1.0), rgb):
        got, want = _blend_both((10, 12), cov, color, offsets)
        assert_same_bytes(got, want)
    layer = CoverageLayer.prepare(cov)
    assert layer.shape == cov.shape
    if kind in ("empty", "negative-only"):
        assert layer.alpha.size == 0 and layer.nbytes == 0
    with pytest.raises(ValueError):
        Framebuffer(12, 10).blend(layer, np.zeros((3, 3, 3), np.float32))


@pytest.mark.parametrize(
    "kind",
    ["empty", "negative-only", "single-pixel", "sparse", "full", "saturated"],
)
@pytest.mark.parametrize("x0,y0", [(0, 0), (3, 2), (-4, -3), (9, 1)])
def test_composite_directed_coverage(kind, x0, y0):
    rng = np.random.default_rng(11)
    cov = np.zeros((7, 9))
    if kind == "negative-only":
        cov[2:4, 3:6] = -0.5
    elif kind == "single-pixel":
        cov[3, 4] = 0.6
    elif kind == "sparse":
        cov[1, 2], cov[5, 7], cov[4, 0] = 0.3, 1e-12, 0.9
    elif kind == "full":
        cov[:] = rng.uniform(0.01, 1.0, cov.shape)
    elif kind == "saturated":
        cov[:] = 5.0
    rgb = rng.uniform(0.0, 1.0, (*cov.shape, 3)).astype(np.float32)
    for color in ((0.2, 0.6, 1.0), rgb):
        got, want = _composite_both((10, 12), cov, color, x0, y0)
        assert_same_bytes(got, want)
