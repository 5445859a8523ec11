"""Tests for the uniform-grid spatial index."""

import numpy as np
import pytest

from repro.core.canvas import BrushCanvas
from repro.core.brush import BrushStroke
from repro.core.spatial_index import UniformGridIndex


@pytest.fixture()
def index(study_dataset):
    return UniformGridIndex(study_dataset.packed(), res=32)


class TestConstruction:
    def test_validation(self, study_dataset):
        with pytest.raises(ValueError):
            UniformGridIndex(study_dataset.packed(), res=0)

    def test_every_segment_registered(self, index, study_dataset):
        packed = study_dataset.packed()
        all_entries = np.concatenate(
            [index.cell_entries(cx, cy) for cy in range(index.res) for cx in range(index.res)]
        )
        assert set(np.unique(all_entries)) == set(range(packed.n_segments))

    def test_duplication_factor_modest(self, index):
        # short ant steps vs. arena-scale cells: near 1
        assert 1.0 <= index.duplication_factor < 1.6

    def test_cell_entries_bounds(self, index):
        with pytest.raises(IndexError):
            index.cell_entries(index.res, 0)


class TestCandidates:
    def test_conservative_never_misses(self, index, study_dataset):
        """Index candidates are a superset of true hits for any brush."""
        rng = np.random.default_rng(0)
        canvas = BrushCanvas()
        canvas.add(BrushStroke(rng.uniform(-0.4, 0.4, (5, 2)), 0.08, "red"))
        centers, radii = canvas.stamps_of("red")
        cand = index.candidates_for_discs(centers, radii)
        packed = study_dataset.packed()
        true_hits = np.flatnonzero(canvas.packed_hit_mask("red", packed))
        assert set(true_hits).issubset(set(cand))

    def test_selective_for_small_brush(self, index):
        centers = np.array([[0.45, 0.0]])
        radii = np.array([0.02])
        frac = index.candidate_fraction(centers, radii)
        assert frac < 0.35

    def test_empty_stamps(self, index):
        cand = index.candidates_for_discs(np.empty((0, 2)), np.empty(0))
        assert len(cand) == 0

    def test_validation(self, index):
        with pytest.raises(ValueError):
            index.candidates_for_discs(np.zeros((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            index.candidates_for_discs(np.zeros((2, 2)), np.ones(3))

    def test_giant_disc_returns_everything(self, index, study_dataset):
        cand = index.candidates_for_discs(np.array([[0.0, 0.0]]), np.array([10.0]))
        assert len(cand) == study_dataset.packed().n_segments

    def test_candidates_unique_and_sorted(self, index):
        cand = index.candidates_for_discs(
            np.array([[0.0, 0.0], [0.01, 0.0]]), np.array([0.3, 0.3])
        )
        assert np.all(np.diff(cand) > 0)


class TestResolutionInvariance:
    def test_hits_independent_of_resolution(self, study_dataset):
        packed = study_dataset.packed()
        canvas = BrushCanvas()
        canvas.add(BrushStroke(np.array([[-0.3, 0.2]]), 0.1, "red"))
        centers, radii = canvas.stamps_of("red")
        truth = canvas.packed_hit_mask("red", packed)
        for res in (4, 16, 64):
            idx = UniformGridIndex(packed, res=res)
            cand = idx.candidates_for_discs(centers, radii)
            narrowed = np.zeros(packed.n_segments, dtype=bool)
            narrowed[cand] = canvas.segment_hit_mask(
                "red", packed.a[cand], packed.b[cand]
            )
            np.testing.assert_array_equal(narrowed, truth)
