"""Vectorized polyline splatting.

Rendering hundreds of trajectory cells means rasterizing hundreds of
thousands of short segments per frame.  A per-segment scanline loop in
Python is hopeless; instead we *splat*: every polyline is resampled
along its arc length at sub-pixel spacing, and the resulting point
cloud is accumulated into a coverage map with bilinear weights.  Line
width is achieved by stamping a small disc kernel of offsets around
each sample.  All (offset, tap, sample) contributions of one call go
through a single ``np.bincount`` per channel, in an order that makes
the float64 sums bit-identical to scattering them one at a time.

This trades exact analytic anti-aliasing for an approximation that is
visually equivalent at sub-pixel step sizes, and it turns a polyline
into a handful of NumPy passes regardless of its length.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["resample_segments", "splat_points", "splat_polylines", "disc_kernel"]


def resample_segments(
    a: np.ndarray, b: np.ndarray, step: float, values: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Resample segments a[i]->b[i] at ``step`` pixel spacing.

    Returns the (P, 2) sample points and, when ``values`` gives a
    per-segment scalar (e.g. normalized time), the (P,) per-sample
    values (linearly carried, constant per segment).

    Fully vectorized: per-segment sample counts come from the segment
    lengths; samples are generated with a repeat/cumulative pattern.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if len(a) == 0:
        return np.empty((0, 2)), (np.empty(0) if values is not None else None)
    d = b - a
    lengths = np.hypot(d[:, 0], d[:, 1])
    counts = np.maximum(1, np.ceil(lengths / step).astype(np.int64)) + 1
    total = int(counts.sum())
    seg_of = np.repeat(np.arange(len(a)), counts)
    # within-segment sample rank: 0..counts[i]-1 via cumulative trick
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank = np.arange(total) - starts[seg_of]
    t = rank / np.maximum(counts[seg_of] - 1, 1)
    points = a[seg_of] + t[:, None] * d[seg_of]
    vals = values[seg_of] if values is not None else None
    return points, vals


@functools.lru_cache(maxsize=64)
def disc_kernel(width: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weights of a disc stamp for line width ``width`` px.

    Width <= 1 collapses to a single center tap.  Weights fall off
    linearly at the rim for soft edges.  Built once per width: the
    arrays are shared by every call and read-only.
    """
    if width <= 1.0:
        offsets, weights = np.zeros((1, 2)), np.ones(1)
    else:
        r = width / 2.0
        n = int(np.ceil(r))
        ys, xs = np.mgrid[-n : n + 1, -n : n + 1]
        d = np.hypot(xs, ys)
        weights_full = np.clip(r + 0.5 - d, 0.0, 1.0)
        keep = weights_full > 0.0
        offsets = np.stack([xs[keep], ys[keep]], axis=1).astype(np.float64)
        weights = weights_full[keep]
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


#: Width of the ring of bins around the box that catches off-box
#: bilinear taps.  A sample's integer corner is clamped to [-2, size]
#: on each axis, so every tap off the box lands in the ring.
_PAD = 2


def _splat(
    coverage: np.ndarray,
    stamps: np.ndarray,
    weights: np.ndarray,
    rgb_accum: np.ndarray | None = None,
    colors: np.ndarray | None = None,
) -> None:
    """Scatter the bilinear contributions of stamped samples in one pass.

    ``stamps`` is (K, P, 2): P sample points under each of K kernel
    offsets.  ``weights`` broadcasts to (K, P).  The four bilinear taps
    of every sample, flattened in (offset, tap, point) order, go
    through one ``np.bincount`` per channel.  ``bincount`` adds each
    bin's weights in input order starting from zero, so on a
    zero-initialized ``coverage`` the float64 sums are bit-identical to
    scattering the contributions one by one in that order.  Taps off
    the box land in a ring of pad bins that is dropped.
    """
    h, w = coverage.shape
    x, y = stamps[..., 0], stamps[..., 1]
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx, fy = x - x0, y - y0
    gx, gy = 1 - fx, 1 - fy
    # taps (0, 0), (1, 0), (0, 1), (1, 1)
    contrib = np.stack(
        [gx * gy * weights, fx * gy * weights, gx * fy * weights, fx * fy * weights], axis=1
    )
    pw, ph = w + 2 * _PAD, h + 2 * _PAD
    base = (np.clip(y0, -_PAD, h) + _PAD) * pw + np.clip(x0, -_PAD, w) + _PAD
    bins = (base[:, None, :] + np.array([0, 1, pw, pw + 1])[:, None]).ravel()

    def binned(values: np.ndarray) -> np.ndarray:
        flat = np.bincount(bins, values.ravel(), minlength=ph * pw)
        return flat.reshape(ph, pw)[_PAD:-_PAD, _PAD:-_PAD]

    coverage += binned(contrib)
    if rgb_accum is not None and colors is not None:
        for c in range(3):
            rgb_accum[..., c] += binned(contrib * colors[:, c])


def splat_points(
    coverage: np.ndarray,
    points: np.ndarray,
    *,
    weights: np.ndarray | float = 1.0,
    rgb_accum: np.ndarray | None = None,
    colors: np.ndarray | None = None,
) -> None:
    """Accumulate points into a coverage map with bilinear weights.

    The single-offset case of :func:`splat_polylines`'s kernel.

    Parameters
    ----------
    coverage:
        (H, W) float array accumulated in place.
    points:
        (P, 2) pixel coordinates (x, y).
    weights:
        Scalar or (P,) per-point weight.
    rgb_accum, colors:
        Optional (H, W, 3) color accumulator and (P, 3) per-point
        colors; enables per-pixel color averaging
        (``rgb = rgb_accum / coverage``) for gradient-colored lines.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return
    _splat(coverage, points[None], np.asarray(weights, dtype=np.float64), rgb_accum, colors)


def splat_polylines(
    coverage: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    width: float = 1.5,
    step: float = 0.7,
    seg_values: np.ndarray | None = None,
    rgb_accum: np.ndarray | None = None,
    value_to_rgb=None,
) -> None:
    """Splat segments a[i]->b[i] (pixel space) into ``coverage``.

    ``seg_values`` + ``value_to_rgb`` enable per-segment color ramps
    (the time gradient): values are resampled along with the geometry
    and mapped to RGB per sample point.

    The per-sample weight is normalized by the samples-per-pixel
    density (step) and kernel mass so accumulated coverage saturates
    near 1.0 on the line body independent of ``step`` and ``width``.
    """
    points, vals = resample_segments(a, b, step, seg_values)
    if len(points) == 0:
        return
    offsets, kweights = disc_kernel(width)
    # normalize: one pixel of line body receives ~ (1/step) samples,
    # each stamping kernel mass sum(kweights)
    norm = step / max(1e-9, float(kweights.max()))
    colors = None
    if vals is not None and value_to_rgb is not None and rgb_accum is not None:
        colors = np.asarray(value_to_rgb(vals), dtype=np.float64)
    # per-offset shift before flooring: floor(x + dx) is not always
    # floor(x) + dx in floating point
    stamps = points[None, :, :] + offsets[:, None, :]
    _splat(coverage, stamps, (kweights * norm)[:, None], rgb_accum, colors)
