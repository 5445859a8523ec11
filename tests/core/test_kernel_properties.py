"""Property tests pinning the vectorized query kernels to scalar oracles.

Two hot kernels are pinned here.  ``brush_hit_cells`` is the aggregate
route's drill-down hit-test: a cell-bbox and a row-bbox lower bound
prune (row, stamp) pairs before the vectorized capsule test.  The
uniform grid index's ``candidates_for_discs`` unions word-wise bitsets
instead of gathering CSR entries.  Hypothesis drives randomized segment
sets and brush stamps through both and through their scalar references
— the drill-down kernel's oracle, ``brush_hit_rows_scalar``, lives
here — and any byte of disagreement is a failed property.  Directed
cases cover the degenerate corners the randomized sweep may under-hit:
empty brushes, full-cover brushes, and single-segment cells.
"""

from __future__ import annotations

from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate import (
    IN,
    MAYBE,
    SummaryPyramid,
    brush_hit_cells,
    classify_spatial,
)
from repro.core.spatial_index import UniformGridIndex
from repro.trajectory.dataset import PackedSegments
from repro.util.geometry import point_segment_distance


def brush_hit_rows_scalar(
    centers: np.ndarray,
    radii: np.ndarray,
    packed: PackedSegments,
    rows: np.ndarray,
) -> np.ndarray:
    """The oracle: one segment × one stamp at a time through the same
    distance kernel and the same ``d <= radius`` comparison the
    brute-force ``brush_hit`` stage evaluates."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros(len(rows), dtype=bool)
    for i, r in enumerate(rows):
        for c, rad in zip(centers, radii):
            if float(point_segment_distance(c, packed.a[r], packed.b[r])) <= rad:
                out[i] = True
                break
    return out


def pyramid_over(packed: PackedSegments, res: int) -> SummaryPyramid:
    """A pyramid over one-trajectory packed segments.  The build reads
    only each trajectory's start time and duration, so a stand-in
    spanning [0, 1] s serves."""
    owner = SimpleNamespace(times=np.zeros(1), duration=1.0)
    return SummaryPyramid.build(packed, [owner], res=res, n_tbuckets=2, levels=(res,))


def drilled_mask(
    pyramid: SummaryPyramid,
    centers: np.ndarray,
    radii: np.ndarray,
    packed: PackedSegments,
) -> np.ndarray:
    """The aggregate route's brush mask: rows of IN cells are hit
    wholesale, rows of MAYBE cells drill down, OUT cells stay False."""
    cls = classify_spatial(pyramid, centers, radii)
    mask = np.zeros(packed.n_segments, dtype=bool)
    mask[pyramid.rows_in_cells(np.flatnonzero(cls == IN))] = True
    rows, hits = brush_hit_cells(
        pyramid, centers, radii, packed, np.flatnonzero(cls == MAYBE)
    )
    mask[rows] = hits
    return mask


_coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def packed_segments(draw) -> PackedSegments:
    """Random small segment sets as one-trajectory packed arrays."""
    n = draw(st.integers(1, 32))
    pts = draw(hnp.arrays(np.float64, (n, 2, 2), elements=_coord))
    return PackedSegments.from_arrays(
        a=np.ascontiguousarray(pts[:, 0]),
        b=np.ascontiguousarray(pts[:, 1]),
        t0=np.zeros(n),
        t1=np.ones(n),
        owner=np.zeros(n, dtype=np.int64),
        offsets=np.array([0, n], dtype=np.int64),
    )


@st.composite
def brushes(draw) -> tuple[np.ndarray, np.ndarray]:
    """0-3 disc stamps, spilling slightly outside the segment box."""
    k = draw(st.integers(0, 3))
    centers = draw(
        hnp.arrays(
            np.float64, (k, 2),
            elements=st.floats(-1.3, 1.3, allow_nan=False, width=64),
        )
    )
    radii = draw(
        hnp.arrays(
            np.float64, (k,),
            elements=st.floats(0.0, 0.8, allow_nan=False, width=64),
        )
    )
    return centers, radii


@given(packed_segments(), brushes(), st.sampled_from((1, 2, 4, 8)))
@settings(max_examples=25, deadline=None)
def test_brush_hit_cells_matches_scalar_oracle(packed, brush, res):
    centers, radii = brush
    pyramid = pyramid_over(packed, res)
    cells = np.unique(pyramid.cell_of_rows())
    for subset in (cells, cells[::2], cells[:0]):
        rows, hits = brush_hit_cells(pyramid, centers, radii, packed, subset)
        np.testing.assert_array_equal(rows, pyramid.rows_in_cells(subset))
        np.testing.assert_array_equal(
            hits, brush_hit_rows_scalar(centers, radii, packed, rows)
        )


@given(packed_segments(), brushes(), st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_bitset_candidates_match_csr_oracle(packed, brush, res):
    centers, radii = brush
    index = UniformGridIndex(packed, res=res)
    np.testing.assert_array_equal(
        index.candidates_for_discs(centers, radii),
        index.candidates_for_discs_scalar(centers, radii),
    )


@given(packed_segments(), brushes(), st.sampled_from((1, 2, 4, 8)))
@settings(max_examples=25, deadline=None)
def test_indexed_mask_matches_brute_force(packed, brush, res):
    """Conservativeness end to end: pruning rows through the pyramid's
    tri-state cells never changes the stage verdict of any row."""
    centers, radii = brush
    np.testing.assert_array_equal(
        drilled_mask(pyramid_over(packed, res), centers, radii, packed),
        brush_hit_rows_scalar(
            centers, radii, packed, np.arange(packed.n_segments)
        ),
    )


@given(packed_segments(), brushes())
@settings(max_examples=25, deadline=None)
def test_union_mask_cache_is_idempotent(packed, brush):
    """The second call answers from the per-cell bitset cache; it must
    be indistinguishable from the cold build."""
    centers, radii = brush
    index = UniformGridIndex(packed, res=4)
    cells = index.touched_cells_for_discs(centers, radii)
    bitsets = index.bitsets()
    cold = bitsets.union_mask(cells)
    warm = bitsets.union_mask(cells)
    np.testing.assert_array_equal(cold, warm)
    assert index.bitsets() is bitsets  # memoized on the index


class TestDirectedCorners:
    def _packed(self, n=5):
        x = np.linspace(-1.0, 1.0, n)
        a = np.stack([x, np.zeros(n)], axis=1)
        b = np.stack([x, np.ones(n)], axis=1)
        return PackedSegments.from_arrays(
            a=a, b=b, t0=np.zeros(n), t1=np.ones(n),
            owner=np.zeros(n, dtype=np.int64),
            offsets=np.array([0, n], dtype=np.int64),
        )

    def test_empty_brush_hits_nothing(self):
        packed = self._packed()
        empty_c = np.empty((0, 2))
        empty_r = np.empty(0)
        index = UniformGridIndex(packed, res=8)
        assert len(index.candidates_for_discs(empty_c, empty_r)) == 0
        assert not drilled_mask(
            pyramid_over(packed, 8), empty_c, empty_r, packed
        ).any()
        assert not brush_hit_rows_scalar(
            empty_c, empty_r, packed, np.arange(packed.n_segments)
        ).any()

    def test_full_cover_brush_hits_everything(self):
        packed = self._packed()
        centers = np.array([[0.0, 0.5]])
        radii = np.array([100.0])
        index = UniformGridIndex(packed, res=8)
        candidates = index.candidates_for_discs(centers, radii)
        np.testing.assert_array_equal(
            candidates, np.arange(packed.n_segments, dtype=np.int64)
        )
        pyramid = pyramid_over(packed, 8)
        # the covering disc decides every cell wholesale: nothing drills
        assert (classify_spatial(pyramid, centers, radii)[
            np.unique(pyramid.cell_of_rows())
        ] == IN).all()
        assert drilled_mask(pyramid, centers, radii, packed).all()

    def test_single_segment_cells(self):
        packed = self._packed(n=1)
        index = UniformGridIndex(packed, res=1)
        centers = np.array([[-1.0, 0.0]])
        radii = np.array([0.05])
        np.testing.assert_array_equal(
            index.candidates_for_discs(centers, radii),
            index.candidates_for_discs_scalar(centers, radii),
        )
        bitsets = index.bitsets()
        words = bitsets.words_of(0)
        assert words.dtype == np.uint64 and not words.flags.writeable
