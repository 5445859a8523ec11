"""A2 — ablation: spatial index on/off.

The engine's one spatial index is the summary pyramid.  This ablation
quantifies what it buys the coordinated-brushing engine at growing
dataset sizes: cold query latency of the aggregate route (pyramid on)
against brute force (pyramid off, ``use_index=False``) for a localized
brush (the Fig. 5 west-edge stroke), plus the pyramid's selectivity —
the fraction of segments the drill-down still hit-tests exactly.
Expected shape: identical results, with the aggregate query a large
constant factor faster and the gap widening with N.
"""

import re

import numpy as np
import pytest

from repro.core.aggregate import SummaryPyramid
from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.synth import generate_scaled_dataset

SERIES = (500, 2_000, 8_000)


def west_canvas(arena):
    r = arena.radius
    c = BrushCanvas()
    c.add(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red"))
    return c


def cold_query(engine, canvas):
    engine.invalidate_cache()
    return engine.query(canvas, "red")


def drilled_fraction(result, n_segments):
    """Segments the cold ``agg_brush`` stage hit-tested exactly, as a
    fraction of the dataset."""
    refined = re.search(r"refined (\d+)", result.trace["agg_brush"].detail)
    return int(refined.group(1)) / n_segments


@pytest.fixture(scope="module")
def datasets():
    return {n: generate_scaled_dataset(n, seed=29, max_duration_s=40.0) for n in SERIES}


def test_a2_index_ablation(datasets, arena, report_sink, benchmark):
    canvas = west_canvas(arena)

    # register the headline cold aggregate query with pytest-benchmark
    fast_large = CoordinatedBrushingEngine(datasets[SERIES[-1]])
    benchmark(cold_query, fast_large, canvas)

    rows = []
    for n in SERIES:
        ds = datasets[n]
        fast = CoordinatedBrushingEngine(ds)
        slow = CoordinatedBrushingEngine(ds, use_index=False)
        # median of 3 cold runs to de-noise
        fast_t = np.median([cold_query(fast, canvas).elapsed_s for _ in range(3)])
        slow_t = np.median([cold_query(slow, canvas).elapsed_s for _ in range(3)])
        r_fast = cold_query(fast, canvas)
        r_slow = cold_query(slow, canvas)
        assert r_fast.trace.strategy == "aggregate"
        np.testing.assert_array_equal(r_fast.segment_mask, r_slow.segment_mask)
        np.testing.assert_array_equal(r_fast.traj_mask, r_slow.traj_mask)
        n_seg = ds.packed().n_segments
        rows.append(
            {
                "n": n,
                "segments": n_seg,
                "with_s": fast_t,
                "without_s": slow_t,
                "speedup": slow_t / max(fast_t, 1e-9),
                "selectivity": drilled_fraction(r_fast, n_seg),
            }
        )

    lines = [
        f"{'N':>6} {'segments':>9} {'pyramid (s)':>12} {'brute (s)':>10} "
        f"{'speedup':>8} {'drilled':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['n']:>6} {r['segments']:>9} {r['with_s']:>12.4f} "
            f"{r['without_s']:>10.4f} {r['speedup']:>7.1f}x "
            f"{r['selectivity']:>7.1%}"
        )
    lines += [
        "(cold queries; identical query results asserted; the pyramid",
        " hit-tests exactly only the segments of cells the brush rim",
        " leaves inconclusive)",
    ]
    report_sink("A2", "spatial index (summary pyramid) on/off (ablation)", lines)

    # expected shape: the pyramid helps, results identical
    assert rows[-1]["speedup"] > 1.5
    assert rows[-1]["selectivity"] < 0.5


def test_a2_index_build_bench(datasets, benchmark):
    ds = datasets[SERIES[-1]]
    packed = ds.packed()
    pyramid = benchmark(SummaryPyramid.build, packed, ds)
    assert int(pyramid.node_counts.sum()) == packed.n_segments
