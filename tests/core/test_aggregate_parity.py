"""Exact-parity harness for the aggregate-first query route.

The acceptance contract of the summary-pyramid refactor: for every
query the aggregate plan (``agg_temporal → agg_spatial → agg_brush →
drilldown``) must return **bit-identical** results to the
brute-force route — same ``segment_mask``, same ``traj_mask``, same
``traj_highlight_time``, same ``group_support``.  The pyramid is
allowed to skip work (supernodes classified all-in/all-out), never to
change an answer: inconclusive nodes drill down to the *same* float
expressions the brute-force kernels evaluate, so equality here is
exact array equality, not allclose.

The harness sweeps seeded randomized specs (multi-stamp strokes at
random positions/radii; fractional, absolute, and no-op windows;
grouped layout assignments) at two synthetic scales, comparing the
brute-force oracle (``use_index=False``) against a default engine,
which holds a pyramid, over the same dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.brush import BrushStroke
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.layout.cells import assign_groups_to_cells
from repro.layout.configs import preset
from repro.layout.groups import TrajectoryGroups
from repro.synth import AntStudyConfig, generate_study_dataset

N_SPECS = 24  # seeded specs per scale (issue floor: >= 20)

# (n_trajectories, synth seed): a small scale where most supernodes are
# inconclusive and the paper scale where all-in/all-out pruning kicks in
SCALES = {"small-60": (60, 21), "paper-150": (150, 7)}


@pytest.fixture(scope="module", params=sorted(SCALES))
def engine_pair(request):
    n_traj, seed = SCALES[request.param]
    ds = generate_study_dataset(AntStudyConfig(n_trajectories=n_traj, seed=seed))
    brute = CoordinatedBrushingEngine(ds, use_index=False)
    agg = CoordinatedBrushingEngine(ds)
    assert agg.pyramid is not None, agg._pyramid_error
    return ds, brute, agg


def _random_canvas(rng: np.random.Generator, radius: float) -> BrushCanvas:
    canvas = BrushCanvas()
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, 6))
        centers = rng.uniform(-radius, radius, size=(k, 2))
        stamp_r = float(rng.uniform(0.03, 0.35) * radius)
        canvas.add(BrushStroke(centers=centers, radius=stamp_r, color="red"))
    return canvas


def _random_window(rng: np.random.Generator, ds) -> TimeWindow:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return TimeWindow.all()
    if kind == 1:
        f0, f1 = np.sort(rng.uniform(0.0, 1.0, size=2))
        return TimeWindow.fraction(float(f0), float(f1))
    _, dmax = ds.duration_range()
    t0, t1 = np.sort(rng.uniform(0.0, dmax * 1.05, size=2))
    return TimeWindow.absolute(float(t0), float(t1))


def _assert_identical(res_brute, res_agg) -> None:
    np.testing.assert_array_equal(res_brute.segment_mask, res_agg.segment_mask)
    np.testing.assert_array_equal(res_brute.traj_mask, res_agg.traj_mask)
    np.testing.assert_array_equal(
        res_brute.traj_highlight_time, res_agg.traj_highlight_time
    )
    assert set(res_brute.group_support) == set(res_agg.group_support)
    for name, gs in res_brute.group_support.items():
        other = res_agg.group_support[name]
        assert gs.support == other.support
        assert gs.n_displayed == other.n_displayed


class TestExactParity:
    def test_randomized_specs_bit_identical(self, engine_pair, arena, viewport):
        ds, brute, agg = engine_pair
        grid = preset("2").build(viewport)
        groups = TrajectoryGroups.fig3_scheme(grid)
        assignment = assign_groups_to_cells(ds, grid, groups)
        n_aggregate_routed = 0
        for trial in range(N_SPECS):
            rng = np.random.default_rng(1000 + trial)
            canvas = _random_canvas(rng, arena.radius)
            window = _random_window(rng, ds)
            asg = assignment if trial % 4 == 0 else None
            res_brute = brute.query(canvas, "red", window=window, assignment=asg)
            res_agg = agg.query(canvas, "red", window=window, assignment=asg)
            assert res_brute.trace.strategy == "brute-force"
            if res_agg.trace.strategy == "aggregate":
                n_aggregate_routed += 1
            _assert_identical(res_brute, res_agg)
        # every non-empty canvas must have taken the aggregate route
        assert n_aggregate_routed == N_SPECS

    def test_empty_canvas_same_fast_path(self, engine_pair):
        _, brute, agg = engine_pair
        res_brute = brute.query(BrushCanvas(), "red")
        res_agg = agg.query(BrushCanvas(), "red")
        assert res_brute.trace.strategy == "empty-brush"
        assert res_agg.trace.strategy == "empty-brush"
        _assert_identical(res_brute, res_agg)

    def test_degenerate_windows(self, engine_pair, arena):
        """Zero-width windows and windows past the experiment end sit on
        the epsilon boundaries of the temporal classifier — exactly
        where a sloppy MAYBE margin would flip a mask bit."""
        ds, brute, agg = engine_pair
        rng = np.random.default_rng(7)
        canvas = _random_canvas(rng, arena.radius)
        _, dmax = ds.duration_range()
        for window in (
            TimeWindow.fraction(0.5, 0.5),
            TimeWindow.fraction(0.0, 0.0),
            TimeWindow.fraction(1.0, 1.0),
            TimeWindow.absolute(0.0, 0.0),
            TimeWindow.absolute(dmax, dmax * 2),
            TimeWindow.absolute(dmax * 1.5, dmax * 2.0),
        ):
            _assert_identical(
                brute.query(canvas, "red", window=window),
                agg.query(canvas, "red", window=window),
            )

    def test_giant_and_tiny_brushes(self, engine_pair, arena):
        """A brush covering the whole arena turns every supernode all-in
        (covering-disc proof); a pin-prick brush leaves nearly all nodes
        all-out.  Both extremes must still match brute force."""
        _, brute, agg = engine_pair
        r = arena.radius
        for centers, stamp_r in (
            (np.zeros((1, 2)), 3.0 * r),
            (np.array([[0.61 * r, -0.37 * r]]), 1e-4 * r),
        ):
            canvas = BrushCanvas()
            canvas.add(BrushStroke(centers=centers, radius=stamp_r, color="red"))
            res_brute = brute.query(canvas, "red")
            res_agg = agg.query(canvas, "red")
            assert res_agg.trace.strategy == "aggregate"
            _assert_identical(res_brute, res_agg)
