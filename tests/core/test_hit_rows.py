"""The row route: selection stages carry sorted hit rows, not masks.

``agg_brush``, ``drilldown`` and ``combine`` output the sorted ``int32``
rows they select; ``aggregate`` reduces over those rows through one
helper both routes call, and the engine turns the final rows into the
result's full-length ``segment_mask``.  Pinned here:

* directed edge cases against the brute-force route: brushes that hit
  no row, one row or every row of one trajectory; windows that leave
  every hit row temporally OUT, MAYBE or IN; the everything window, an
  absolute window past the data, and one-segment trajectories;
* the cached ``agg_brush`` value (sorted, unique, ``int32``, read-only)
  and a slider move that reuses it;
* the mask route the engine ran before hit rows, kept below as an
  oracle: masks must match it byte for byte, and highlighted seconds
  within 4 ulps (a sum over hit rows groups the terms of ``add.reduceat``
  differently from a sum over every row with zeros in between).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate.kernels import (
    IN,
    MAYBE,
    OUT,
    brush_hit_cells,
    classify_spatial,
    classify_temporal,
    refine_temporal_rows,
)
from repro.core.brush import BrushStroke
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.plan import Deadline
from repro.core.plan.trace import QueryTrace
from repro.core.temporal import TimeWindow
from repro.resilience.health import DegradationReport
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory, TrajectoryMeta

ULPS = 4


# The mask route, kept as an oracle ---------------------------------------

def _mask_route(engine, canvas, color, window):
    """``(segment_mask, traj_mask, traj_time)`` as the mask route computed
    them: a full-length brush mask, the window's tri-state gathered over
    every row with the inconclusive rows refined, and ``reduceat`` over
    every trajectory's whole row range."""
    pyramid, packed = engine.pyramid, engine.packed
    centers, radii = canvas.stamps_of(color)
    scls = classify_spatial(pyramid, centers, radii)
    mask = np.zeros(packed.n_segments, dtype=bool)
    mask[pyramid.rows_in_cells(np.flatnonzero(scls == IN))] = True
    maybe_rows, hits = brush_hit_cells(
        pyramid, centers, radii, packed, np.flatnonzero(scls == MAYBE)
    )
    mask[maybe_rows] = hits
    tcls_rows = classify_temporal(pyramid, window)[pyramid.node_of]
    mask &= tcls_rows != OUT
    need = np.flatnonzero(mask & (tcls_rows == MAYBE))
    if len(need):
        mask[need] = refine_temporal_rows(pyramid, packed, window, need)

    starts = packed.offsets[:-1]
    has_segments = packed.offsets[1:] > starts
    traj_mask = np.zeros(len(engine.dataset), dtype=bool)
    if mask.any():
        traj_mask = np.bitwise_or.reduceat(mask, starts) & has_segments
    dt = (packed.t1 - packed.t0) * mask
    traj_time = np.where(has_segments, np.add.reduceat(dt, starts), 0.0)
    return mask, traj_mask, traj_time


def _assert_matches_mask_route(engine, canvas, color, window):
    res = engine.query(canvas, color, window=window)
    assert res.trace.strategy == "aggregate"
    mask, traj_mask, traj_time = _mask_route(engine, canvas, color, window)
    assert res.segment_mask.dtype == mask.dtype
    assert res.segment_mask.tobytes() == mask.tobytes()
    assert res.traj_mask.tobytes() == traj_mask.tobytes()
    got = res.traj_highlight_time
    tol = ULPS * np.spacing(np.maximum(np.abs(got), np.abs(traj_time)))
    assert np.all(np.abs(got - traj_time) <= tol)
    assert np.array_equal(got == 0.0, traj_time == 0.0)
    return res


def _assert_matches_brute_force(brute, agg, canvas, color, window):
    want = brute.query(canvas, color, window=window)
    got = agg.query(canvas, color, window=window)
    assert got.trace.strategy == "aggregate"
    assert got.segment_mask.tobytes() == want.segment_mask.tobytes()
    assert got.traj_mask.tobytes() == want.traj_mask.tobytes()
    assert got.traj_highlight_time.tobytes() == want.traj_highlight_time.tobytes()
    return got


def _canvas(center, radius, color="red") -> BrushCanvas:
    canvas = BrushCanvas()
    canvas.add(BrushStroke(centers=np.array([center], dtype=float), radius=radius,
                           color=color))
    return canvas


def _cached(engine, canvas, color, window, stage):
    plan = engine.plan(canvas, color, window=window)
    key = next(s.key for s in plan.stages if s.name == stage)
    value, found = engine.cache.lookup(key)
    assert found, stage
    return value


# A hand-built dataset whose rows each case can name ----------------------

WALKER, LOOP, ISOLATED = 0, 1, 2
CLUSTER = (3, 4, 5, 6, 7)  # one-segment trajectories sharing one node


@pytest.fixture(scope="module")
def handmade():
    """A walker and a loop that stretch the grid, an isolated
    one-segment trajectory, and five one-segment trajectories packed
    into one spatial cell at staggered absolute times."""
    trajs = []
    x = np.linspace(-0.8, 0.8, 41)
    trajs.append((np.stack([x, np.full_like(x, -0.8)], axis=1), np.arange(41.0)))
    theta = np.linspace(0.0, 2.0 * np.pi, 30)
    loop = np.stack([0.2 * np.cos(theta), 0.3 + 0.2 * np.sin(theta)], axis=1)
    trajs.append((loop, 100.0 + np.arange(30.0)))
    trajs.append((np.array([[-0.70, 0.7], [-0.69, 0.7]]), np.array([0.0, 2.0])))
    for i in range(len(CLUSTER)):
        xi = 0.61 + 0.001 * i
        trajs.append((np.array([[xi, 0.6], [xi, 0.601]]),
                      np.array([10.0 * i, 10.0 * i + 5.0])))
    ds = TrajectoryDataset(name="handmade")
    for positions, times in trajs:
        ds.append(Trajectory(positions, times, TrajectoryMeta(), -1))
    return ds, CoordinatedBrushingEngine(ds, use_index=False), CoordinatedBrushingEngine(ds)


@pytest.fixture(scope="module")
def study_pair(study_dataset):
    return (CoordinatedBrushingEngine(study_dataset, use_index=False),
            CoordinatedBrushingEngine(study_dataset))


CLUSTER_BRUSH = ((0.612, 0.6005), 0.01)


class TestDirectedCases:
    def test_brush_that_hits_no_row(self, handmade):
        ds, brute, agg = handmade
        canvas = _canvas((2.0, 2.0), 0.01)
        res = _assert_matches_brute_force(brute, agg, canvas, "red", TimeWindow.all())
        assert not res.segment_mask.any() and not res.traj_mask.any()
        assert len(_cached(agg, canvas, "red", TimeWindow.all(), "agg_brush")) == 0
        _assert_matches_mask_route(agg, canvas, "red", TimeWindow.all())

    def test_brush_that_hits_one_row(self, handmade):
        ds, brute, agg = handmade
        canvas = _canvas((-0.695, 0.7), 0.002)
        res = _assert_matches_brute_force(brute, agg, canvas, "red", TimeWindow.all())
        rows = _cached(agg, canvas, "red", TimeWindow.all(), "agg_brush")
        assert rows.tolist() == [int(ds.packed().offsets[ISOLATED])]
        assert res.traj_highlight_time[ISOLATED] == 2.0
        _assert_matches_mask_route(agg, canvas, "red", TimeWindow.all())

    def test_brush_that_hits_every_row_of_one_trajectory(self, handmade):
        ds, brute, agg = handmade
        canvas = _canvas((0.0, 0.3), 0.25)
        res = _assert_matches_brute_force(brute, agg, canvas, "red", TimeWindow.all())
        lo, hi = ds.packed().offsets[LOOP : LOOP + 2]
        rows = _cached(agg, canvas, "red", TimeWindow.all(), "agg_brush")
        assert rows.tolist() == list(range(lo, hi))
        assert np.flatnonzero(res.traj_mask).tolist() == [LOOP]
        _assert_matches_mask_route(agg, canvas, "red", TimeWindow.all())

    @pytest.mark.parametrize(
        "window, code, hit",
        [
            (TimeWindow.absolute(1000.0, 2000.0), OUT, ()),  # past the data
            # only [20, 25] of the cluster's spans meets the window
            (TimeWindow.absolute(22.5, 22.7), MAYBE, (CLUSTER[2],)),
            (TimeWindow.fraction(1.0, 1.0), MAYBE, CLUSTER),
            (TimeWindow.absolute(0.0, 45.0), IN, CLUSTER),
            (TimeWindow.all(), IN, CLUSTER),
        ],
    )
    def test_windows_over_one_node_of_one_segment_trajectories(
        self, handmade, window, code, hit
    ):
        ds, brute, agg = handmade
        canvas = _canvas(*CLUSTER_BRUSH)
        res = _assert_matches_brute_force(brute, agg, canvas, "red", window)
        rows = _cached(agg, canvas, "red", window, "agg_brush")
        assert ds.packed().owner[rows].tolist() == list(CLUSTER)
        tcls = classify_temporal(agg.pyramid, window)[agg.pyramid.node_of[rows]]
        assert (tcls == code).all()
        refined = len(rows) if code == MAYBE else 0
        assert res.trace["drilldown"].detail == f"refined {refined} segments"
        assert np.flatnonzero(res.traj_mask).tolist() == list(hit)
        _assert_matches_mask_route(agg, canvas, "red", window)

    def test_everything_window_and_window_past_the_data(self, study_pair, arena):
        brute, agg = study_pair
        _, t_max = agg.dataset.duration_range()
        canvas = _canvas((0.2 * arena.radius, -0.1 * arena.radius), 0.3 * arena.radius)
        full = _assert_matches_brute_force(brute, agg, canvas, "red", TimeWindow.all())
        assert full.segment_mask.any()
        past = _assert_matches_brute_force(
            brute, agg, canvas, "red", TimeWindow.absolute(2 * t_max + 1.0, 3 * t_max + 2.0)
        )
        assert not past.segment_mask.any()


class TestCachedHitRows:
    def test_agg_brush_rows_are_sorted_unique_int32_and_read_only(
        self, study_pair, arena
    ):
        _, agg = study_pair
        canvas = _canvas((-0.3 * arena.radius, 0.2 * arena.radius), 0.4 * arena.radius)
        window = TimeWindow.fraction(0.2, 0.7)
        res = agg.query(canvas, "red", window=window)
        for stage in ("agg_brush", "drilldown"):
            rows = _cached(agg, canvas, "red", window, stage)
            assert rows.dtype == np.int32
            assert len(rows) and np.all(np.diff(rows) > 0)
            assert not rows.flags.writeable
        assert res.trace["agg_brush"].n_out == len(_cached(
            agg, canvas, "red", window, "agg_brush"))
        assert res.trace["aggregate"].n_in == int(res.segment_mask.sum())

    def test_slider_move_reuses_the_brush_rows(self, study_pair, arena):
        brute, agg = study_pair
        canvas = _canvas((0.1 * arena.radius, 0.4 * arena.radius), 0.3 * arena.radius)
        agg.query(canvas, "red", window=TimeWindow.fraction(0.1, 0.5))
        rows = _cached(agg, canvas, "red", TimeWindow.all(), "agg_brush")
        moved = agg.query(canvas, "red", window=TimeWindow.fraction(0.3, 0.9))
        assert moved.trace["agg_spatial"].cache_hit
        assert moved.trace["agg_brush"].cache_hit
        assert moved.trace.executed_stages() == [
            "agg_temporal", "drilldown", "aggregate",
        ]
        assert _cached(agg, canvas, "red", TimeWindow.all(), "agg_brush") is rows
        want = brute.query(canvas, "red", window=TimeWindow.fraction(0.3, 0.9))
        assert moved.segment_mask.tobytes() == want.segment_mask.tobytes()

    def test_deadline_partial_is_empty_rows_and_an_all_false_mask(
        self, study_pair, arena
    ):
        _, agg = study_pair
        canvas = _canvas((0.0, 0.0), 0.5 * arena.radius)
        plan = agg.plan(canvas, "red")
        expired = Deadline(budget_s=1.0, expires_at=1.0, clock=lambda: 2.0)
        trace = QueryTrace(strategy=plan.strategy)
        outputs = agg.executor.run(
            plan, canvas, TimeWindow.all(), None, trace, DegradationReport(),
            deadline=expired,
        )
        for stage in ("agg_brush", "drilldown"):
            assert outputs[stage].dtype == np.int32 and len(outputs[stage]) == 0
        res = agg.query(canvas, "red", deadline_s=1e-9)
        assert res.degraded and not res.segment_mask.any()
        assert len(res.segment_mask) == agg.packed.n_segments


class TestMaskRouteOracle:
    def test_seeded_queries_match_the_mask_route(self, study_pair, arena):
        _, agg = study_pair
        _, t_max = agg.dataset.duration_range()
        r = arena.radius
        for trial in range(24):
            rng = np.random.default_rng(2600 + trial)
            canvas = BrushCanvas()
            for _ in range(int(rng.integers(1, 3))):
                k = int(rng.integers(1, 6))
                canvas.add(BrushStroke(centers=rng.uniform(-r, r, size=(k, 2)),
                                       radius=float(rng.uniform(0.03, 0.4) * r),
                                       color="red"))
            kind = trial % 3
            if kind == 0:
                window = TimeWindow.all()
            elif kind == 1:
                window = TimeWindow.fraction(*sorted(rng.uniform(0.0, 1.0, 2)))
            else:
                window = TimeWindow.absolute(*sorted(rng.uniform(0.0, 1.05 * t_max, 2)))
            _assert_matches_mask_route(agg, canvas, "red", window)
