"""The shared brush canvas.

All small-multiple cells show the same arena, so one brush canvas in
arena coordinates serves every cell simultaneously — that is the whole
trick behind coordinated brushing's scalability.  The canvas holds the
accumulated strokes grouped by color (each color is an independent
query region), supports erasing, and computes per-segment hit masks.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.brush import BrushStroke
from repro.trajectory.dataset import PackedSegments
from repro.util.geometry import point_segment_distance

__all__ = ["BrushCanvas"]

# Process-wide canvas ids: stage-cache keys must distinguish two canvas
# instances even when their edit epochs coincide.
_CANVAS_UIDS = itertools.count(1)


class BrushCanvas:
    """Accumulated brush strokes in shared arena space."""

    def __init__(self) -> None:
        self._strokes: list[BrushStroke] = []
        self._version = 0
        self._uid = next(_CANVAS_UIDS)
        self._color_epochs: dict[str, int] = {}

    # Editing -----------------------------------------------------------
    def add(self, stroke: BrushStroke) -> None:
        """Lay down a stroke (bumps the stroke epoch of its color)."""
        if not isinstance(stroke, BrushStroke):
            raise TypeError(f"expected BrushStroke, got {type(stroke).__name__}")
        self._strokes.append(stroke)
        self._version += 1
        self._color_epochs[stroke.color] = self._version

    def clear(self, color: str | None = None) -> None:
        """Erase all strokes, or only those of one color."""
        if color is None:
            touched = {s.color for s in self._strokes}
            self._strokes.clear()
        else:
            touched = {color}
            self._strokes = [s for s in self._strokes if s.color != color]
        self._version += 1
        for c in touched:
            self._color_epochs[c] = self._version

    @property
    def version(self) -> int:
        """Monotone edit counter (query caches key on it)."""
        return self._version

    @property
    def stroke_epoch(self) -> int:
        """The global stroke epoch: bumped by every add/clear.  Stage
        caches key on the per-color epochs; this is the whole-canvas
        invalidation epoch."""
        return self._version

    @property
    def uid(self) -> int:
        """Process-unique canvas id (part of every stage cache key)."""
        return self._uid

    def color_epoch(self, color: str) -> int:
        """Stroke epoch of one color: last edit that touched it (0 =
        never touched).  Strokes of *other* colors leave it unchanged,
        which is what lets a query for ``color`` keep its cached
        spatial stages while someone paints in a different color."""
        return self._color_epochs.get(color, 0)

    @property
    def n_strokes(self) -> int:
        return len(self._strokes)

    def strokes(self, color: str | None = None) -> list[BrushStroke]:
        """Strokes on the canvas, optionally restricted to one color."""
        if color is None:
            return list(self._strokes)
        return [s for s in self._strokes if s.color == color]

    def colors(self) -> list[str]:
        """Colors present, in first-use order."""
        seen: list[str] = []
        for s in self._strokes:
            if s.color not in seen:
                seen.append(s.color)
        return seen

    def is_empty(self) -> bool:
        """True when no strokes are painted."""
        return not self._strokes

    # Hit testing ---------------------------------------------------------
    def stamps_of(self, color: str) -> tuple[np.ndarray, np.ndarray]:
        """All stamp (centers, radii) of one color, concatenated.

        Radii are per-stamp because strokes of the same color may use
        different brush sizes.
        """
        strokes = self.strokes(color)
        if not strokes:
            return np.empty((0, 2)), np.empty(0)
        centers = np.concatenate([s.centers for s in strokes], axis=0)
        radii = np.concatenate(
            [np.full(s.n_stamps, s.radius, dtype=np.float64) for s in strokes]
        )
        return centers, radii

    def segment_hit_mask(
        self,
        color: str,
        a: np.ndarray,
        b: np.ndarray,
        *,
        chunk: int = 262_144,
    ) -> np.ndarray:
        """Mask of segments a[i]->b[i] touching the color's brushed region.

        Vectorized as (segments x stamps) distance blocks; ``chunk``
        bounds the temporary to ~chunk*K floats so 100k-trace datasets
        stay within memory (HPC-guide: bound your broadcast temporaries).
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        centers, radii = self.stamps_of(color)
        n = len(a)
        out = np.zeros(n, dtype=bool)
        if len(centers) == 0 or n == 0:
            return out
        k = len(centers)
        block = max(1, chunk // max(1, k))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            # (B, K) distances from each stamp center to each segment
            d = point_segment_distance(
                centers[None, :, :], a[lo:hi, None, :], b[lo:hi, None, :]
            )
            out[lo:hi] = (d <= radii[None, :]).any(axis=1)
        return out

    def packed_hit_mask(self, color: str, packed: PackedSegments) -> np.ndarray:
        """Hit mask over every one of a dataset's packed segments — the
        brute-force ``brush_hit`` stage."""
        return self.segment_hit_mask(color, packed.a, packed.b)

    def bounding_box(self, color: str | None = None) -> tuple[np.ndarray, np.ndarray] | None:
        """(lo, hi) bounds of the brushed region (one color or all)."""
        strokes = self.strokes(color)
        if not strokes:
            return None
        los, his = zip(*(s.bounding_box() for s in strokes))
        return np.min(los, axis=0), np.max(his, axis=0)
