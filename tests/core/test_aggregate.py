"""Unit tests for the summary pyramid and its classification kernels.

Complements ``test_aggregate_parity.py`` (end-to-end bit-identity of
the aggregate query route): here the individual pieces are checked
against brute-force references — CSR structure, per-node statistics,
cell gathers, the shared-arena table round-trip, and the vectorized
drill-down hit kernel against its scalar oracle (which lives in
``test_kernel_properties.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import (
    IN,
    MAYBE,
    OUT,
    SummaryPyramid,
    brush_hit_cells,
    classify_temporal,
)
from repro.core.aggregate.pyramid import _multi_range_indices
from repro.core.temporal import TimeWindow
from tests.core.test_kernel_properties import brush_hit_rows_scalar


@pytest.fixture(scope="module")
def pyramid(study_dataset):
    return SummaryPyramid.build(
        study_dataset.packed(), study_dataset, res=16, n_tbuckets=4, levels=(4, 16)
    )


class TestBuildInvariants:
    def test_csr_structure(self, pyramid, study_dataset):
        packed = study_dataset.packed()
        assert pyramid.offsets[0] == 0
        assert pyramid.offsets[-1] == packed.n_segments
        assert (np.diff(pyramid.offsets) >= 0).all()
        # entries is a permutation of all segment rows
        assert np.array_equal(np.sort(pyramid.entries), np.arange(packed.n_segments))
        # every CSR range holds exactly the rows whose node_of matches
        for node in (0, int(pyramid.n_nodes // 2), int(pyramid.n_nodes - 1)):
            members = pyramid.entries[
                pyramid.offsets[node] : pyramid.offsets[node + 1]
            ]
            assert (pyramid.node_of[members] == node).all()
        assert int(pyramid.node_counts.sum()) == packed.n_segments

    def test_node_stats_cover_every_member(self, pyramid, study_dataset):
        """Per-node extents must equal the brute-force reduction over
        that node's members — including the very last member of the
        last occupied node (a reduceat clamping bug dropped it once,
        flipping one drill-down answer near window boundaries)."""
        packed = study_dataset.packed()
        occupied = np.flatnonzero(pyramid.node_counts > 0)
        last = int(occupied[-1])
        for node in (int(occupied[0]), int(occupied[len(occupied) // 2]), last):
            rows = pyramid.entries[pyramid.offsets[node] : pyramid.offsets[node + 1]]
            assert pyramid.tstats[node, 0] == packed.t0[rows].min()
            assert pyramid.tstats[node, 3] == packed.t1[rows].max()
            seg_lo = np.minimum(packed.a[rows], packed.b[rows])
            seg_hi = np.maximum(packed.a[rows], packed.b[rows])
            assert (pyramid.bbox[node, :2] <= seg_lo.min(axis=0)).all()
            assert (pyramid.bbox[node, 2:] >= seg_hi.max(axis=0)).all()

    def test_empty_nodes_have_sentinel_stats(self, pyramid):
        empty = np.flatnonzero(pyramid.node_counts == 0)
        assert len(empty), "expected some empty supernodes at res=16"
        assert (pyramid.bbox[empty, 0] == np.inf).all()
        assert (pyramid.bbox[empty, 2] == -np.inf).all()
        # and the temporal classifier sends them straight to OUT
        cls = classify_temporal(pyramid, TimeWindow.all())
        assert (cls[empty] == OUT).all()
        assert set(np.unique(cls)) <= {OUT, MAYBE, IN}

    def test_validation_errors(self, study_dataset):
        packed = study_dataset.packed()
        with pytest.raises(ValueError, match="end at the leaf"):
            SummaryPyramid.build(packed, study_dataset, res=16, levels=(4, 8))
        with pytest.raises(ValueError, match="divide"):
            SummaryPyramid.build(packed, study_dataset, res=16, levels=(3, 16))
        with pytest.raises(ValueError, match="increasing"):
            SummaryPyramid.build(packed, study_dataset, res=16, levels=(16, 4, 16))
        with pytest.raises(ValueError, match="res"):
            SummaryPyramid.build(packed, study_dataset, res=0, levels=(1,))


class TestLookups:
    def test_rows_in_cells_matches_bruteforce(self, pyramid):
        cell_of = pyramid.cell_of_rows()
        rng = np.random.default_rng(3)
        occupied_cells = np.unique(cell_of)
        for _ in range(5):
            cells = rng.choice(occupied_cells, size=4, replace=False)
            got = np.sort(pyramid.rows_in_cells(cells))
            want = np.sort(np.flatnonzero(np.isin(cell_of, cells)))
            assert np.array_equal(got, want)
        assert len(pyramid.rows_in_cells(np.empty(0, dtype=np.int64))) == 0

    def test_trajectories_in_cells_matches_bruteforce(self, pyramid, study_dataset):
        packed = study_dataset.packed()
        cell_of = pyramid.cell_of_rows()
        cells = np.unique(cell_of)[:7]
        got = pyramid.trajectories_in_cells(cells)
        want = np.zeros(len(study_dataset), dtype=bool)
        want[np.unique(packed.owner[np.isin(cell_of, cells)])] = True
        assert np.array_equal(got, want)

    def test_multi_range_indices(self):
        starts = np.array([2, 10, 10, 20], dtype=np.int64)
        stops = np.array([5, 10, 13, 21], dtype=np.int64)
        assert np.array_equal(
            _multi_range_indices(starts, stops),
            np.array([2, 3, 4, 10, 11, 12, 20]),
        )
        empty = np.empty(0, dtype=np.int64)
        assert len(_multi_range_indices(empty, empty)) == 0


class TestTableRoundTrip:
    def test_from_tables_reproduces_build(self, pyramid, study_dataset):
        clone = SummaryPyramid.from_tables(
            study_dataset.packed(),
            res=pyramid.res,
            n_tbuckets=pyramid.n_tbuckets,
            levels=pyramid.levels,
            lo=pyramid.lo.copy(),
            cell_size=pyramid.cell_size.copy(),
            node_of=pyramid.node_of.copy(),
            entries=pyramid.entries.copy(),
            offsets=pyramid.offsets.copy(),
            bbox=pyramid.bbox.copy(),
            tstats=pyramid.tstats.copy(),
            bits=pyramid.bits.copy(),
            level_bbox=pyramid.level_bbox.copy(),
            traj_start=pyramid.traj_start.copy(),
            traj_dur=pyramid.traj_dur.copy(),
        )
        np.testing.assert_array_equal(clone.tstats, pyramid.tstats)
        np.testing.assert_array_equal(clone.bbox, pyramid.bbox)
        np.testing.assert_array_equal(clone.node_of, pyramid.node_of)
        cls_a = classify_temporal(pyramid, TimeWindow.fraction(0.2, 0.7))
        cls_b = classify_temporal(clone, TimeWindow.fraction(0.2, 0.7))
        np.testing.assert_array_equal(cls_a, cls_b)

    def test_tables_are_frozen(self, pyramid):
        for name in ("node_of", "entries", "offsets", "bbox", "tstats", "bits"):
            arr = getattr(pyramid, name)
            with pytest.raises(ValueError):
                arr[0] = 0


class TestBrushHitKernel:
    """Satellite: the vectorized drill-down hit-test must agree with the
    scalar one-segment-one-stamp oracle on every row."""

    def test_vectorized_matches_scalar(self, pyramid, study_dataset, arena):
        packed = study_dataset.packed()
        rng = np.random.default_rng(11)
        r = arena.radius
        occupied_cells = np.unique(pyramid.cell_of_rows())
        for trial in range(4):
            k = int(rng.integers(1, 5))
            centers = rng.uniform(-r, r, size=(k, 2))
            radii = rng.uniform(0.02 * r, 0.4 * r, size=k)
            cells = rng.choice(occupied_cells, size=3, replace=False)
            rows, fast = brush_hit_cells(pyramid, centers, radii, packed, cells)
            slow = brush_hit_rows_scalar(centers, radii, packed, rows)
            np.testing.assert_array_equal(fast, slow)

    def test_chunking_is_invisible(self, pyramid, study_dataset, arena):
        """Drilling the cells in chunks gives the rows and hits of one
        call over all of them, in the same order."""
        packed = study_dataset.packed()
        r = arena.radius
        centers = np.array([[0.2 * r, -0.1 * r]])
        radii = np.array([0.3 * r])
        cells = np.unique(pyramid.cell_of_rows())
        rows, full = brush_hit_cells(pyramid, centers, radii, packed, cells)
        parts = [
            brush_hit_cells(pyramid, centers, radii, packed, cells[i : i + 37])
            for i in range(0, len(cells), 37)
        ]
        np.testing.assert_array_equal(rows, np.concatenate([p[0] for p in parts]))
        np.testing.assert_array_equal(full, np.concatenate([p[1] for p in parts]))
        assert full.any() and not full.all()

    def test_empty_rows(self, pyramid, study_dataset):
        packed = study_dataset.packed()
        rows, out = brush_hit_cells(
            pyramid, np.zeros((1, 2)), np.ones(1), packed, np.empty(0, dtype=np.int64)
        )
        assert rows.shape == out.shape == (0,) and out.dtype == bool


class TestBrushHitCells:
    """The cell-pruned drill-down kernel must agree with the scalar
    oracle over exactly the member rows of the requested cells."""

    def test_matches_row_kernel(self, pyramid, study_dataset, arena):
        packed = study_dataset.packed()
        rng = np.random.default_rng(17)
        r = arena.radius
        occupied_cells = np.unique(pyramid.cell_of_rows())
        for trial in range(4):
            k = int(rng.integers(1, 5))
            centers = rng.uniform(-r, r, size=(k, 2))
            radii = rng.uniform(0.02 * r, 0.4 * r, size=k)
            cells = rng.choice(
                occupied_cells, size=min(8, len(occupied_cells)), replace=False
            )
            rows, hits = brush_hit_cells(pyramid, centers, radii, packed, cells)
            np.testing.assert_array_equal(rows, pyramid.rows_in_cells(cells))
            np.testing.assert_array_equal(
                hits, brush_hit_rows_scalar(centers, radii, packed, rows)
            )

    def test_empty_inputs(self, pyramid, study_dataset):
        packed = study_dataset.packed()
        rows, hits = brush_hit_cells(
            pyramid, np.zeros((0, 2)), np.zeros(0), packed, np.array([0, 1])
        )
        assert not hits.any()
        rows, hits = brush_hit_cells(
            pyramid,
            np.zeros((1, 2)),
            np.ones(1),
            packed,
            np.empty(0, dtype=np.int64),
        )
        assert len(rows) == 0 and len(hits) == 0
