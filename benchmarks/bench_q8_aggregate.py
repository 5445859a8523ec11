"""Q8 — aggregate-first query planning over the summary pyramid.

The claim of the aggregate refactor: most of a brushing query can be
answered from per-supernode sufficient statistics (tri-state
classification over grid-cell × time-bucket summaries), with the exact
per-segment kernels run only where the summaries are inconclusive —
and the answer stays **bit-identical** to the brute-force route
(``tests/core/test_aggregate_parity.py`` holds that line; this bench
assumes it and measures the payoff).  Brute force (``use_index=False``)
is the one per-segment route the engine keeps, as oracle and as the
rung a failed pyramid build lands on.

Measured per scale (1x = the paper's ~500 trajectories, 10x = 5000;
100x = 50 000 behind ``REPRO_BENCH_100X=1`` — minutes of synth +
brute-force time on CI hardware):

* **cold query** — median wall over fresh-cache queries, brute force
  vs aggregate route, same brush + window;
* **warm slider sweep** — median per-query wall while only the time
  window moves (the interaction loop the wall optimizes for: the
  window-independent brush mask is cached on both routes, so each
  slider tick re-runs only the temporal stages);
* **pyramid build** — one-time summarization cost and table bytes,
  amortized over every query of an epoch.

Acceptance gates:

* aggregate cold < 100 ms at 10x;
* the warm slider path is preserved (aggregate warm median no worse
  than 3x brute-force warm + 1 ms timer floor at every scale).

The cold ratio against brute force is recorded per scale for context
only; it is not gated.

Emits human-readable ``out/Q8.txt`` and machine-readable
``out/BENCH_Q8.json`` (CI artifact, with a ``host`` block: usable CPUs,
Python and NumPy versions; the aggregate-bench job gates on the
headline recorded here).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.synth import AntStudyConfig, generate_study_dataset

pytestmark = pytest.mark.perf

OUT_DIR = Path(__file__).parent / "out"

COLD_REPS = 5
SLIDER_TICKS = 20
SCALES = {"1x": 500, "10x": 5000}
if os.environ.get("REPRO_BENCH_100X") == "1":
    SCALES["100x"] = 50_000

GATE_COLD_AGG_S_10X = 0.100


def _brush(arena) -> BrushCanvas:
    r = arena.radius
    c = BrushCanvas()
    c.add(
        stroke_from_rect(
            (-r, -0.6 * r), (-0.55 * r, 0.6 * r), radius=0.12 * r, color="red"
        )
    )
    return c


def _cold_median_s(engine, canvas, window) -> float:
    walls = []
    for _ in range(COLD_REPS):
        engine.cache.clear()
        t0 = time.perf_counter()
        engine.query(canvas, "red", window=window)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _slider_median_s(engine, canvas) -> float:
    """Median per-tick wall of a time-slider sweep on a warm engine
    (first query pays the window-independent stages; each tick then
    moves only the window)."""
    engine.cache.clear()
    engine.query(canvas, "red", window=TimeWindow.fraction(0.1, 0.8))
    walls = []
    for i in range(SLIDER_TICKS):
        window = TimeWindow.fraction(0.0, 0.05 + 0.9 * i / SLIDER_TICKS)
        t0 = time.perf_counter()
        engine.query(canvas, "red", window=window)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def test_q8_aggregate_first(arena, report_sink):
    canvas = _brush(arena)
    window = TimeWindow.fraction(0.1, 0.8)
    scales: dict[str, dict] = {}

    for label, n_traj in SCALES.items():
        dataset = generate_study_dataset(AntStudyConfig(n_trajectories=n_traj))
        brute = CoordinatedBrushingEngine(dataset, use_index=False)
        t0 = time.perf_counter()
        agg = CoordinatedBrushingEngine(dataset)
        build_s = time.perf_counter() - t0
        assert agg.pyramid is not None, agg._pyramid_error

        cold_brute = _cold_median_s(brute, canvas, window)
        cold_agg = _cold_median_s(agg, canvas, window)
        warm_brute = _slider_median_s(brute, canvas)
        warm_agg = _slider_median_s(agg, canvas)

        # what the classifier spares the exact kernels: segments
        # refined vs total, read from the cold trace
        agg.cache.clear()
        res = agg.query(canvas, "red", window=window)
        drill = {
            s.stage: s.detail for s in res.trace.stages if "refined" in s.detail
        }
        assert res.trace.strategy == "aggregate"

        scales[label] = {
            "n_trajectories": n_traj,
            "n_segments": int(dataset.packed().n_segments),
            "pyramid_build_s": round(build_s, 4),
            "pyramid_bytes": int(agg.pyramid.nbytes),
            "cold_brute_force_s": round(cold_brute, 5),
            "cold_aggregate_s": round(cold_agg, 5),
            "cold_speedup_vs_brute_force": round(cold_brute / cold_agg, 1),
            "warm_slider_brute_force_s": round(warm_brute, 6),
            "warm_slider_aggregate_s": round(warm_agg, 6),
            "drilldown": drill,
        }

    warm_ok = all(
        s["warm_slider_aggregate_s"] <= 3.0 * s["warm_slider_brute_force_s"] + 0.001
        for s in scales.values()
    )
    headline = {
        "cold_aggregate_s_10x": scales["10x"]["cold_aggregate_s"],
        "gate_cold_aggregate_s_10x_max": GATE_COLD_AGG_S_10X,
        "warm_slider_within_gate": warm_ok,
        "gate_warm_slider": "aggregate <= 3x brute force + 1 ms at every scale",
        "scales_run": sorted(SCALES),
    }
    payload = {
        "bench": "Q8",
        "title": "aggregate-first query planning (summary pyramid)",
        "host": {
            "n_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "headline": headline,
        "scales": scales,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_Q8.json").write_text(json.dumps(payload, indent=2))

    host = payload["host"]
    lines = [
        f"host: {host['n_cpus']} usable CPUs, Python {host['python']}, "
        f"NumPy {host['numpy']}",
    ]
    for label, s in scales.items():
        lines += [
            f"{label}: {s['n_trajectories']} trajectories "
            f"({s['n_segments']} segments), pyramid build "
            f"{s['pyramid_build_s'] * 1e3:.0f} ms / {s['pyramid_bytes'] / 1e6:.1f} MB",
            f"  cold: brute force {s['cold_brute_force_s'] * 1e3:8.1f} ms | aggregate "
            f"{s['cold_aggregate_s'] * 1e3:7.1f} ms | "
            f"{s['cold_speedup_vs_brute_force']:.1f}x",
            f"  warm slider tick: brute force "
            f"{s['warm_slider_brute_force_s'] * 1e3:6.2f} ms"
            f" | aggregate {s['warm_slider_aggregate_s'] * 1e3:6.2f} ms",
        ]
    if "100x" not in SCALES:
        lines.append("100x scale skipped (set REPRO_BENCH_100X=1 to run it)")
    lines.append("machine-readable: out/BENCH_Q8.json")
    report_sink("Q8", "aggregate-first query planning", lines)

    # acceptance gates -------------------------------------------------
    assert scales["10x"]["cold_aggregate_s"] < GATE_COLD_AGG_S_10X, scales["10x"]
    assert warm_ok, scales
