"""Unit tests for the summary pyramid and its classification kernels.

Complements ``test_aggregate_parity.py`` (end-to-end bit-identity of
the aggregate query route): here the individual pieces are checked
against brute-force references — every build table byte for byte
against the straightforward build algorithm, CSR structure, per-node
statistics, cell gathers, and the vectorized drill-down hit kernel
against its scalar oracle (which lives in
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
from repro.synth import AntStudyConfig, generate_study_dataset
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


PYRAMID_TABLES = (
    "lo",
    "cell_size",
    "node_of",
    "entries",
    "offsets",
    "bbox",
    "tstats",
    "bits",
    "level_bbox",
    "level_offsets",
    "traj_start",
    "traj_dur",
)


def _reference_build(packed, dataset, res, n_tbuckets, levels):
    """The pyramid's tables by the straightforward algorithm: (S, 2)
    extents, an int64 stable argsort, one gather per statistic and
    ``np.unique`` over (cell, owner) pairs.  Returns ``(tables,
    spatial_eps)``."""
    seg_lo = np.minimum(packed.a, packed.b)
    seg_hi = np.maximum(packed.a, packed.b)
    lo_pt = seg_lo.min(axis=0)
    span = np.maximum(seg_hi.max(axis=0) - lo_pt, 1e-12)
    lo = lo_pt - 1e-9 * span
    cell_size = (span * (1.0 + 2e-9)) / res
    n_traj = len(dataset)
    traj_start = np.array([float(t.times[0]) for t in dataset], dtype=np.float64)
    traj_dur = np.array([t.duration for t in dataset], dtype=np.float64)

    mid = 0.5 * (packed.a + packed.b)
    cells2 = np.floor((mid - lo) / cell_size).astype(np.int64)
    np.clip(cells2, 0, res - 1, out=cells2)
    cell = cells2[:, 1] * res + cells2[:, 0]
    starts_of = traj_start[packed.owner]
    durs_of = traj_dur[packed.owner]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (0.5 * (packed.t0 + packed.t1) - starts_of) / durs_of
        g0 = (packed.t0 - starts_of) / durs_of
        g1 = (packed.t1 - starts_of) / durs_of
    tb = np.zeros(packed.n_segments, dtype=np.int64)
    good = np.isfinite(frac)
    tb[good] = np.floor(frac[good] * n_tbuckets).astype(np.int64)
    np.clip(tb, 0, n_tbuckets - 1, out=tb)
    node = cell * n_tbuckets + tb

    n_nodes = res * res * n_tbuckets
    order = np.argsort(node, kind="stable")
    counts = np.bincount(node, minlength=n_nodes)
    offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    has = counts > 0

    def stat(arr, op, empty):
        out = np.full(n_nodes, empty, dtype=np.float64)
        out[has] = op.reduceat(arr[order], offsets[:-1][has])
        return out

    bad = ~(np.isfinite(g0) & np.isfinite(g1))
    g0 = np.where(bad, np.nan, g0)
    g1 = np.where(bad, np.nan, g1)
    lowest, highest = (np.minimum, np.inf), (np.maximum, -np.inf)
    bbox = np.column_stack(
        [
            stat(seg_lo[:, 0], *lowest),
            stat(seg_lo[:, 1], *lowest),
            stat(seg_hi[:, 0], *highest),
            stat(seg_hi[:, 1], *highest),
        ]
    )
    tstats = np.column_stack(
        [stat(col, *ext) for col in (packed.t0, packed.t1, g0, g1) for ext in (lowest, highest)]
    )

    n_cells = res * res
    bits = np.zeros((n_cells, (n_traj + 63) // 64), dtype=np.uint64)
    pair = np.unique(cell * np.int64(n_traj) + packed.owner)
    p_owner = pair % n_traj
    np.bitwise_or.at(
        bits,
        (pair // n_traj, p_owner >> 6),
        np.uint64(1) << (p_owner.astype(np.uint64) & np.uint64(63)),
    )

    cells = bbox.reshape(n_cells, n_tbuckets, 4)
    cell_bbox = np.concatenate([cells[..., :2].min(axis=1), cells[..., 2:].max(axis=1)], axis=1)
    parts = []
    for lv in levels:
        f = res // lv
        tiled = cell_bbox.reshape(lv, f, lv, f, 4)
        coarse = np.concatenate(
            [tiled[..., :2].min(axis=(1, 3)), tiled[..., 2:].max(axis=(1, 3))], axis=-1
        )
        parts.append(coarse.reshape(lv * lv, 4))
    level_offsets = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([lv * lv for lv in levels], out=level_offsets[1:])

    tables = {
        "lo": lo,
        "cell_size": cell_size,
        "node_of": node.astype(np.int32),
        "entries": order.astype(np.int64),
        "offsets": offsets,
        "bbox": bbox,
        "tstats": tstats,
        "bits": bits,
        "level_bbox": np.concatenate(parts, axis=0),
        "level_offsets": level_offsets,
        "traj_start": traj_start,
        "traj_dur": traj_dur,
    }
    return tables, float(1e-9 * span.max())


def _assert_matches_reference(dataset, **shape):
    packed = dataset.packed()
    pyramid = SummaryPyramid.build(packed, dataset, **shape)
    want, want_eps = _reference_build(
        packed, dataset, pyramid.res, pyramid.n_tbuckets, pyramid.levels
    )
    for name in PYRAMID_TABLES:
        got = getattr(pyramid, name)
        assert (got.dtype, got.shape) == (want[name].dtype, want[name].shape), name
        assert got.tobytes() == want[name].tobytes(), name
    assert pyramid.spatial_eps == want_eps


class TestBuildOracle:
    """Every table the build makes, and ``spatial_eps``, equals the
    straightforward algorithm's byte for byte, in dtype and shape too."""

    @pytest.mark.parametrize(
        "shape",
        [{}, {"res": 16, "n_tbuckets": 4, "levels": (4, 16)}],
        ids=["default", "res16"],
    )
    def test_study_dataset(self, study_dataset, shape):
        _assert_matches_reference(study_dataset, **shape)

    @pytest.mark.parametrize("n_traj", [1, 63, 64, 65])
    def test_bitset_word_boundaries(self, n_traj):
        dataset = generate_study_dataset(AntStudyConfig(n_trajectories=n_traj, seed=5))
        _assert_matches_reference(dataset)

    def test_node_ids_wider_than_16_bits(self, study_dataset):
        # 128 * 128 * 8 = 131,072 nodes: the sort key cannot be uint16
        _assert_matches_reference(
            study_dataset, res=128, n_tbuckets=8, levels=(8, 32, 128)
        )


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
