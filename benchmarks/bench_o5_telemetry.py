"""O5 — telemetry plane: overhead, fast path, and export shape.

The observability subsystem's cost contract (DESIGN.md §10): telemetry
is an observer, not a participant.  Concretely:

* **enabled overhead** — a warm query with a live registry must run
  within 10% of the same query against the no-op registry (the 12-ish
  guarded emits a warm query makes are the entire difference);
* **disabled is free** — ``obs.span()`` under the null registry
  returns the same shared object every call (zero allocation), and a
  facade emit is one attribute check;
* **snapshot/export cost** — folding the registry and rendering the
  Prometheus exposition stays far off the query path's timescale.

Methodology matches tests/obs/test_overhead_perf.py: one registry
throughout, interleaved samples with alternating within-pair order,
min-of-N (for a CPU-bound section every perturbation only adds time).
Emits machine-readable ``out/BENCH_O5.json`` for CI trend tracking,
with a ``host`` block (usable CPUs, Python and NumPy versions).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.temporal import TimeWindow
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

OUT_DIR = Path(__file__).parent / "out"

SAMPLES = 60
MAX_OVERHEAD = 1.10


@pytest.fixture(scope="module")
def canvas(arena):
    c = BrushCanvas()
    r = arena.radius
    c.add(stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), radius=0.12 * r, color="red"))
    return c


@pytest.fixture(autouse=True)
def _restore_registry():
    previous = obs.get_registry()
    yield
    obs.set_registry(previous)


def _interleaved_warm_queries(engine, canvas, registry) -> tuple[list[float], list[float]]:
    window = TimeWindow.end(0.2)
    for reg in (registry, NULL_REGISTRY):  # warm cache, shard, both paths
        obs.set_registry(reg)
        engine.query(canvas, "red", window=window)
    disabled: list[float] = []
    enabled: list[float] = []
    for k in range(SAMPLES):
        pairs = [(registry, enabled), (NULL_REGISTRY, disabled)]
        for reg, samples in pairs if k % 2 else reversed(pairs):
            obs.set_registry(reg)
            t0 = time.perf_counter()
            engine.query(canvas, "red", window=window)
            samples.append(time.perf_counter() - t0)
    obs.set_registry(NULL_REGISTRY)
    return disabled, enabled


def test_o5_telemetry_overhead(full_dataset, canvas, host, report_sink):
    engine = CoordinatedBrushingEngine(full_dataset)
    registry = MetricsRegistry()
    disabled, enabled = _interleaved_warm_queries(engine, canvas, registry)
    best_off, best_on = min(disabled), min(enabled)
    overhead = best_on / best_off

    # disabled fast path: span() is the shared no-op object, every call
    obs.set_registry(NULL_REGISTRY)
    null_ids = {id(obs.span(f"s{i}")) for i in range(1000)}
    zero_alloc_fast_path = null_ids == {id(obs.NULL_SPAN)}

    t0 = time.perf_counter()
    snapshot = registry.snapshot()
    snapshot_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    exposition = obs.render_prometheus(snapshot)
    render_s = time.perf_counter() - t0

    packed = full_dataset.packed()
    payload = {
        "bench": "O5",
        "title": "telemetry plane overhead (repro.obs)",
        "host": host._asdict(),
        "dataset": {
            "name": "S1 synthetic ensemble",
            "n_trajectories": len(full_dataset),
            "n_segments": int(packed.n_segments),
        },
        "samples_per_arm": SAMPLES,
        "disabled": {
            "min_s": best_off,
            "median_s": statistics.median(disabled),
        },
        "enabled": {
            "min_s": best_on,
            "median_s": statistics.median(enabled),
        },
        "overhead_ratio": round(overhead, 4),
        "max_overhead_ratio": MAX_OVERHEAD,
        "zero_alloc_disabled_span_fast_path": zero_alloc_fast_path,
        "snapshot_s": snapshot_s,
        "prometheus_render_s": render_s,
        "exposition_lines": len(exposition.splitlines()),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_O5.json").write_text(json.dumps(payload, indent=2))

    lines = [
        host.line,
        f"dataset: {len(full_dataset)} trajectories / {packed.n_segments} segments",
        f"warm query, telemetry off: min {best_off * 1e6:7.1f} us",
        f"warm query, telemetry on:  min {best_on * 1e6:7.1f} us",
        f"enabled overhead: {overhead:.3f}x (budget {MAX_OVERHEAD:.2f}x)",
        f"disabled span fast path zero-alloc: {zero_alloc_fast_path}",
        f"registry snapshot: {snapshot_s * 1e6:.1f} us, "
        f"prometheus render: {render_s * 1e6:.1f} us "
        f"({len(exposition.splitlines())} lines)",
        "machine-readable: out/BENCH_O5.json",
    ]
    report_sink("O5", "telemetry plane overhead", lines)

    assert zero_alloc_fast_path, "disabled span() must return the shared NULL_SPAN"
    assert overhead <= MAX_OVERHEAD, (
        f"enabled telemetry overhead {overhead:.3f}x exceeds {MAX_OVERHEAD:.2f}x"
    )
