"""Q2 — staged query-plan pipeline: cold vs warm latency.

The paper's headline interaction claim is that a brush or time-slider
tweak answers "in a matter of few seconds" across ~500 trajectories.
The staged pipeline makes the *warm* path structurally cheaper: a
slider-only change re-executes just ``agg_temporal → classify →
drilldown → aggregate`` and an unchanged query is pure cache lookups.  This bench
quantifies it on the S1 synthetic ensemble (the paper-scale
500-trajectory dataset):

* cold vs warm single-query latency (stage cache emptied vs primed);
* a slider-sweep replay at ~0 / 50 / 90 % cache-hit rates, emulating a
  researcher scrubbing the temporal slider with varying amounts of
  revisiting.

Besides the human-readable ``out/Q2.txt`` table, the run emits
machine-readable ``out/BENCH_Q2.json`` for CI trend tracking, with a
``host`` block (usable CPUs, Python and NumPy versions) so runs on
different machines are not compared blind.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow

OUT_DIR = Path(__file__).parent / "out"

N_SWEEP = 20
WINDOW_WIDTH = 0.2


@pytest.fixture(scope="module")
def canvas(arena):
    c = BrushCanvas()
    r = arena.radius
    c.add(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), radius=0.12 * r, color="red"))
    return c


def _timed_query(engine, canvas, window) -> float:
    t0 = time.perf_counter()
    engine.query(canvas, "red", window=window)
    return time.perf_counter() - t0


def _sweep_windows(n: int, offset: float = 0.0) -> list[TimeWindow]:
    """n sliding fractional windows across the experiment."""
    out = []
    for i in range(n):
        lo = (i / max(1, n)) * (1.0 - WINDOW_WIDTH) + offset
        out.append(TimeWindow.fraction(lo, lo + WINDOW_WIDTH))
    return out


def _replay(engine, canvas, positions: list[TimeWindow], *, cold_each: bool) -> dict:
    """Run one slider-sweep replay; returns latency + hit-rate stats."""
    hits0 = engine.cache.stats.hits
    lookups0 = engine.cache.stats.hits + engine.cache.stats.misses
    latencies = []
    for window in positions:
        if cold_each:
            engine.invalidate_cache()
        latencies.append(_timed_query(engine, canvas, window))
    hits = engine.cache.stats.hits - hits0
    lookups = (engine.cache.stats.hits + engine.cache.stats.misses) - lookups0
    return {
        "n_queries": len(positions),
        "observed_hit_rate": round(hits / lookups, 3) if lookups else 0.0,
        "median_s": statistics.median(latencies),
        "mean_s": statistics.fmean(latencies),
        "total_s": sum(latencies),
    }


def test_q2_query_pipeline(full_dataset, canvas, host, report_sink):
    engine = CoordinatedBrushingEngine(full_dataset)
    window = TimeWindow.fraction(0.3, 0.5)

    # --- cold vs warm single-query latency -----------------------------
    cold = []
    for _ in range(5):
        engine.invalidate_cache()
        cold.append(_timed_query(engine, canvas, window))
    engine.invalidate_cache()
    _timed_query(engine, canvas, window)  # prime every stage
    warm = [_timed_query(engine, canvas, window) for _ in range(10)]
    cold_median = statistics.median(cold)
    warm_median = statistics.median(warm)
    speedup = cold_median / warm_median if warm_median > 0 else float("inf")

    # --- slider-sweep replay at three revisit rates --------------------
    sweeps = {}
    # ~0%: every position new, cache dropped before each step
    eng0 = CoordinatedBrushingEngine(full_dataset)
    sweeps["0"] = {
        "target_hit_rate": 0.0,
        **_replay(eng0, canvas, _sweep_windows(N_SWEEP), cold_each=True),
    }
    # ~50%: every distinct position visited twice back to back
    eng50 = CoordinatedBrushingEngine(full_dataset)
    positions_50 = [w for w in _sweep_windows(N_SWEEP // 2) for _ in (0, 1)]
    sweeps["50"] = {
        "target_hit_rate": 0.5,
        **_replay(eng50, canvas, positions_50, cold_each=False),
    }
    # ~90%: two distinct positions revisited for the whole sweep
    eng90 = CoordinatedBrushingEngine(full_dataset)
    two = _sweep_windows(2)
    positions_90 = [two[i % 2] for i in range(N_SWEEP)]
    sweeps["90"] = {
        "target_hit_rate": 0.9,
        **_replay(eng90, canvas, positions_90, cold_each=False),
    }

    packed = full_dataset.packed()
    payload = {
        "bench": "Q2",
        "title": "staged query-plan pipeline (plan/execute split)",
        "host": host._asdict(),
        "dataset": {
            "name": "S1 synthetic ensemble",
            "n_trajectories": len(full_dataset),
            "n_segments": int(packed.n_segments),
        },
        "cold": {"n": len(cold), "median_s": cold_median, "min_s": min(cold)},
        "warm": {"n": len(warm), "median_s": warm_median, "min_s": min(warm)},
        "speedup_warm_over_cold": round(speedup, 2),
        "slider_sweep": sweeps,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_Q2.json").write_text(json.dumps(payload, indent=2))

    lines = [
        host.line,
        f"dataset: {len(full_dataset)} trajectories / {packed.n_segments} segments",
        f"cold query median: {cold_median * 1e3:8.2f} ms  (cache emptied per query)",
        f"warm query median: {warm_median * 1e3:8.2f} ms  (all stages cached)",
        f"warm speedup: {speedup:.1f}x",
        "slider-sweep replay (20 steps, fractional window scrub):",
    ]
    for label, s in sweeps.items():
        lines.append(
            f"  ~{label:>2}% revisits: median {s['median_s'] * 1e3:7.2f} ms, "
            f"observed stage hit rate {s['observed_hit_rate']:.0%}, "
            f"total {s['total_s'] * 1e3:.1f} ms"
        )
    lines.append("machine-readable: out/BENCH_Q2.json")
    report_sink("Q2", "staged query-plan pipeline", lines)

    # acceptance: warm path at least 3x faster than cold
    assert speedup >= 3.0, f"warm/cold speedup {speedup:.2f} < 3"
    # incremental scrubbing must beat the fully cold sweep
    assert sweeps["90"]["total_s"] < sweeps["0"]["total_s"]
