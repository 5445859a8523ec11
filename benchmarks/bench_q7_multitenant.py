"""Q7 — lock-free multi-tenant read path over epoch snapshots.

The tentpole claim of the snapshot refactor: N concurrent sessions over
one :class:`DatasetService` should cost roughly one session's wall time
(queries parallelize across the GIL-releasing numpy kernels), not N
sessions' — the pre-refactor service serialized every query behind the
service RLock, and BENCH_Q3 measured the 8-session wall at ~24x solo.
This bench quantifies the new read path on the paper-scale dataset:

* **solo vs 8 sessions** — each scripted user is first timed *solo* on
  a fresh service (the 8 users' brushes differ in cost by ~8x, so one
  user's wall is not a fair yardstick), then all 8 run concurrently.
  The acceptance gate is 8-session wall ≤ 3x the CPU-bound ideal
  ``max(sum(solo) / n_cpus, max(solo))`` — on a multicore box that
  collapses to "8 sessions ≈ the slowest user's solo wall", the
  tentpole claim, while on a single-CPU CI runner (where 8 sessions'
  distinct work is ≥ 8x wall by physics, lock or no lock) it still
  fails loudly if anything serializes *beyond* the CPU itself.  The
  raw 8-vs-mean-solo ratio is recorded alongside for continuity with
  the pre-refactor ~24x figure;
* **scaling curve** — 1 → 64 concurrent sessions, exact p50/p95/p99
  per-query latency plus wall time per scale, each scale on a fresh
  service (cold shared cache) so scales are comparable;
* **scripted analyst traffic** — N concurrent
  :class:`~repro.sensemaking.analyst.AnalystSimulator` users replaying
  the pilot-study script, with p50/p95/p99 of ``query.seconds``
  reported from the live :mod:`repro.obs` histogram (the same numbers
  an operator's exporter would see);
* **frame render baseline** — serial vs pooled
  ``render_viewport_parallel`` over a published store, bit-identity
  checked, tracked in the Q7 JSON so render-path regressions show up
  alongside the query-path numbers.

Emits human-readable ``out/Q7.txt`` and machine-readable
``out/BENCH_Q7.json`` (CI artifact; the multitenant-bench job gates on
the 8-session p95/solo ratio recorded here).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.brush import stroke_from_rect
from repro.core.temporal import TimeWindow
from repro.sensemaking.analyst import AnalystSimulator, default_study_script
from repro.store import DatasetService, SharedArenaStore

OUT_DIR = Path(__file__).parent / "out"

N_QUERIES_PER_SESSION = 6
SESSION_SCALES = (1, 2, 4, 8, 16, 32, 64)
SCALE_QUERIES = 4  # per session on the scaling curve (64x4 = 256 queries)
N_ANALYSTS = 8
WALL_RATIO_GATE = 3.0


@pytest.fixture(autouse=True)
def _restore_registry():
    previous = obs.get_registry()
    yield
    obs.set_registry(previous)


def _stroke(arena, i: int = 0):
    r = arena.radius
    x0 = -r + 0.12 * r * (i % 12)
    return stroke_from_rect((x0, -0.6 * r), (x0 + 0.3 * r, 0.5 * r), 0.1 * r, "red")


def _drive_session(session, arena, i: int, n_queries: int) -> list[float]:
    """One user's brushing script; returns per-query latencies."""
    session.brush(_stroke(arena, i))
    latencies = []
    for q in range(n_queries):
        session.set_time_window(TimeWindow.end(0.12 + 0.1 * ((i + q) % 7)))
        t0 = time.perf_counter()
        session.run_query("red")
        latencies.append(time.perf_counter() - t0)
    return latencies


def _run_concurrent(service, viewport, arena, n_sessions: int, n_queries: int):
    """N barrier-started session threads; returns (wall_s, latencies)."""
    views = [service.session(viewport) for _ in range(n_sessions)]
    all_lat: list[list[float]] = [[] for _ in range(n_sessions)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_sessions)

    def run(i: int) -> None:
        try:
            barrier.wait(timeout=120)
            all_lat[i] = _drive_session(views[i], arena, i, n_queries)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_sessions)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    assert errors == [], errors
    for view in views:
        view.close()
    return wall, [x for lat in all_lat for x in lat]


def _percentiles(latencies: list[float]) -> dict[str, float]:
    arr = np.asarray(latencies)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 3),
        "p95_ms": round(float(np.percentile(arr, 95)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 3),
    }


def test_q7_multitenant(full_dataset, viewport, arena, report_sink):
    registry = obs.enable()
    n_cpus = len(os.sched_getaffinity(0))

    # --- per-user solo baselines (fresh service each: cold cache) --------
    solo_walls: list[float] = []
    solo_lat: list[float] = []
    for i in range(8):
        with DatasetService(full_dataset) as service:
            view = service.session(viewport)
            t0 = time.perf_counter()
            solo_lat.extend(_drive_session(view, arena, i, N_QUERIES_PER_SESSION))
            solo_walls.append(time.perf_counter() - t0)
            view.close()

    # --- the same 8 users, concurrently (the acceptance gate) ------------
    with DatasetService(full_dataset) as service:
        multi_wall, multi_lat = _run_concurrent(service, viewport, arena, 8,
                                                N_QUERIES_PER_SESSION)
    # CPU-bound ideal: the aggregate solo work spread over the cores,
    # floored by the slowest user (the critical path)
    ideal_wall = max(sum(solo_walls) / n_cpus, max(solo_walls))
    wall_ratio = multi_wall / ideal_wall
    mean_solo = sum(solo_walls) / len(solo_walls)
    solo_p = _percentiles(solo_lat)
    multi_p = _percentiles(multi_lat)
    headline = {
        "queries_per_session": N_QUERIES_PER_SESSION,
        "n_cpus": n_cpus,
        "solo_walls_s": [round(w, 4) for w in solo_walls],
        "solo": {"wall_mean_s": round(mean_solo, 4), **solo_p},
        "concurrent_8": {"wall_s": round(multi_wall, 4), **multi_p},
        "ideal_wall_s": round(ideal_wall, 4),
        "wall_ratio_8_vs_ideal": round(wall_ratio, 2),
        "wall_ratio_8_vs_mean_solo": round(multi_wall / mean_solo, 2),
        "p95_ratio_8_vs_solo": round(multi_p["p95_ms"] / solo_p["p95_ms"], 2),
        "gate_wall_ratio_max": WALL_RATIO_GATE,
    }

    # --- scaling curve: 1 -> 64 sessions, fresh (cold) service each ------
    scaling = {}
    for n in SESSION_SCALES:
        with DatasetService(full_dataset) as service:
            wall, lat = _run_concurrent(service, viewport, arena, n, SCALE_QUERIES)
        scaling[str(n)] = {
            "wall_s": round(wall, 4),
            "queries": len(lat),
            "throughput_qps": round(len(lat) / wall, 1),
            **_percentiles(lat),
        }

    # --- scripted analyst traffic (pilot-study replay, N users) ----------
    with DatasetService(full_dataset) as service:
        sessions = [service.session(viewport) for _ in range(N_ANALYSTS)]
        script = default_study_script(arena)
        replays: list = [None] * N_ANALYSTS
        errors: list[BaseException] = []
        barrier = threading.Barrier(N_ANALYSTS)

        def analyse(i: int) -> None:
            try:
                barrier.wait(timeout=120)
                replays[i] = AnalystSimulator(sessions[i], arena).run(script)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=analyse, args=(i,)) for i in range(N_ANALYSTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        analyst_wall = time.perf_counter() - t0
        assert errors == [], errors
        assert all(r is not None for r in replays)
        for view in sessions:
            view.close()
        cache = service.engine.cache_stats()

    snap = registry.snapshot()
    q_hist = None
    for (name, _), hist in snap.histograms.items():
        if name == "query.seconds":
            q_hist = hist if q_hist is None else q_hist  # first strategy bucket
    # merged across strategies via counter totals; quantiles from the
    # dominant (aggregate) histogram — the operator's-eye view
    obs_quantiles = (
        {
            "p50_ms": round(q_hist.quantile(0.50) * 1e3, 3),
            "p95_ms": round(q_hist.quantile(0.95) * 1e3, 3),
            "p99_ms": round(q_hist.quantile(0.99) * 1e3, 3),
        }
        if q_hist is not None
        else {}
    )
    analysts = {
        "n_users": N_ANALYSTS,
        "wall_s": round(analyst_wall, 4),
        "hypotheses_per_user": replays[0].hypotheses_tested(),
        "verdicts_agree_across_users": all(
            [v.kind for v in r.verdicts] == [v.kind for v in replays[0].verdicts]
            for r in replays
        ),
        "obs_query_seconds": obs_quantiles,
        "cache": cache,
    }
    assert analysts["verdicts_agree_across_users"], (
        "concurrent analysts diverged from the solo replay"
    )

    # --- lock-free proof: every query attributed to an epoch snapshot ----
    snapshot_proof = {
        "snapshot_queries": snap.counter_total("service.snapshot.queries"),
        "session_queries": snap.counter_total("session.queries"),
        "pinned": snap.counter_total("service.snapshot.pinned"),
        "released": snap.counter_total("service.snapshot.released"),
        "lock_wait_gauge_present": snap.gauge("service.lock.wait_seconds")
        is not None,
    }
    assert snapshot_proof["snapshot_queries"] == snapshot_proof["session_queries"]
    assert snapshot_proof["pinned"] == snapshot_proof["released"]
    assert not snapshot_proof["lock_wait_gauge_present"]

    # --- tracked baseline: serial vs pooled frame render -----------------
    from repro.display.bezel import BezelSpec
    from repro.display.viewport import Viewport
    from repro.display.wall import DisplayWall
    from repro.layout.cells import assign_sequential
    from repro.layout.grid import BezelAwareGrid
    from repro.parallel.tilerender import render_viewport_parallel
    from repro.render.pipeline import WallRenderer
    from repro.stereo.camera import Eye
    from repro.synth.arena import Arena

    with SharedArenaStore.publish(full_dataset) as store:
        small_wall = DisplayWall(
            cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
            panel_px_width=160, panel_px_height=90, bezel=BezelSpec(),
        )
        small_viewport = Viewport(small_wall)
        grid = BezelAwareGrid(small_viewport, 4, 2)
        renderer = WallRenderer(full_dataset, Arena(), small_viewport)
        assignment = assign_sequential(full_dataset, grid)
        serial = render_viewport_parallel(renderer, assignment, max_workers=0)
        pooled = render_viewport_parallel(
            renderer, assignment, max_workers=4, store=store
        )
        assert not pooled.degraded, pooled.degradation.summary()
        for eye in (Eye.LEFT, Eye.RIGHT):  # bit-identity: tracked, not timed
            for key in serial.frames[eye]:
                np.testing.assert_array_equal(
                    serial.frames[eye][key].data, pooled.frames[eye][key].data
                )
        frame = {
            "serial_s": round(serial.elapsed_s, 4),
            "pooled_shm_s": round(pooled.elapsed_s, 4),
            "workers": pooled.workers,
            "bit_identical": True,
        }

    payload = {
        "bench": "Q7",
        "title": "lock-free multi-tenant read path over epoch snapshots",
        "dataset": {
            "n_trajectories": len(full_dataset),
            "n_segments": int(full_dataset.packed().n_segments),
        },
        "headline": headline,
        "scaling": scaling,
        "analyst_traffic": analysts,
        "snapshot_proof": snapshot_proof,
        "frame_render": frame,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_Q7.json").write_text(json.dumps(payload, indent=2))

    lines = [
        f"dataset: {len(full_dataset)} trajectories, "
        f"{int(full_dataset.packed().n_segments)} segments  "
        f"({n_cpus} cpu{'s' if n_cpus != 1 else ''})",
        f"solo (per-user, fresh service): mean wall {mean_solo * 1e3:7.1f} ms, "
        f"range {min(solo_walls) * 1e3:.0f}-{max(solo_walls) * 1e3:.0f} ms  "
        f"p50 {solo_p['p50_ms']:.2f} / p95 {solo_p['p95_ms']:.2f} / "
        f"p99 {solo_p['p99_ms']:.2f} ms",
        f"8 sessions: wall {multi_wall * 1e3:8.1f} ms  p50 {multi_p['p50_ms']:.2f} / "
        f"p95 {multi_p['p95_ms']:.2f} / p99 {multi_p['p99_ms']:.2f} ms",
        f"8-session wall: {wall_ratio:.2f}x the cpu-bound ideal "
        f"{ideal_wall * 1e3:.0f} ms (gate <= {WALL_RATIO_GATE:.0f}x), "
        f"{multi_wall / mean_solo:.1f}x mean solo (pre-refactor ~24x)",
        "scaling (fresh service per scale, cold shared cache):",
    ]
    for n in SESSION_SCALES:
        s = scaling[str(n)]
        lines.append(
            f"  {n:3d} sessions: wall {s['wall_s'] * 1e3:8.1f} ms | "
            f"p50 {s['p50_ms']:7.2f} | p95 {s['p95_ms']:7.2f} | "
            f"p99 {s['p99_ms']:7.2f} ms | {s['throughput_qps']:7.1f} q/s"
        )
    lines += [
        f"analyst traffic: {N_ANALYSTS} users x "
        f"{analysts['hypotheses_per_user']} hypotheses in "
        f"{analyst_wall:.2f} s, verdicts identical across users",
        f"lock-free proof: {int(snapshot_proof['snapshot_queries'])} queries "
        "all epoch-attributed, pins conserved, no lock-wait gauge",
        f"frame render baseline: serial {frame['serial_s'] * 1e3:.1f} ms vs "
        f"pooled {frame['pooled_shm_s'] * 1e3:.1f} ms, bit-identical",
        "machine-readable: out/BENCH_Q7.json",
    ]
    report_sink("Q7", "lock-free multi-tenant read path", lines)

    # acceptance: 8 concurrent sessions cost <= 3x one session's wall
    assert wall_ratio <= WALL_RATIO_GATE, headline
    # acceptance: the curve reaches 64 sessions and answered every query
    assert scaling["64"]["queries"] == 64 * SCALE_QUERIES
