"""Q3 — zero-copy shared-memory data plane: ship handles, not datasets.

The tentpole claim of the store refactor: a worker (a render node's
tile owner) should receive an O(handle-bytes) address of the resident
arrays instead of an O(dataset-bytes) pickle.  This bench quantifies it
on the paper-scale 500-trajectory dataset:

* **init payload** — ``pickle.dumps`` size of the tile owners'
  initializer arguments, pickle-ship vs store-handle ship;
* **pool warm-up** — wall time to spin up a *spawn*-context pool (the
  honest transport: fork inherits pages for free) at 1/4/8 workers
  under each transport, until every worker is initialized and drained
  (``mp.Pool`` spawns eagerly, so all N workers really boot — a lazy
  executor would let the first worker up absorb the probe tasks and
  quietly skip the other N-1 initializer payloads);
* **frame latency** — ``render_viewport_parallel`` serial vs pooled
  (tile owners over the store, pickle ship-back of tile pixels), with
  the bit-identity acceptance check.  Both are cold: each repetition
  gets a fresh renderer (and so fresh tile owners), because a renderer
  retains its last frame's base layers.  ``serial_retained_s`` and
  ``pooled_retained_s`` are the warm counterparts: a renderer that
  keeps its bases (serial), or whose tile owners keep theirs (pooled),
  re-renders after one color's stroke is replaced, as on an analyst's
  brush tick; the warm serial renderer's retained bytes are reported
  as base layers and overlay layers (footprints and highlights);
* **sessions** — the same brushing script run by 1 vs 8 concurrent
  :class:`SessionView` threads over one :class:`DatasetService`
  (one resident copy of the packed arrays, one stage cache).

Emits human-readable ``out/Q3.txt`` and machine-readable
``out/BENCH_Q3.json`` (CI artifact), with a ``host`` block (usable
CPUs, Python and NumPy versions) so runs on different machines are not
compared blind.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import os
import pickle
import statistics
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.temporal import TimeWindow
from repro.parallel.tilerender import _init_owner
from repro.store import DatasetService, SharedArenaStore
from repro.synth import AntStudyConfig, generate_study_dataset

OUT_DIR = Path(__file__).parent / "out"

WORKER_COUNTS = (1, 4, 8)
N_SHIP_TRAJ = 3000  # ~45 MB pickled: payload must dominate worker boot
N_SESSIONS = 8
N_QUERIES_PER_SESSION = 6


@pytest.fixture(scope="module")
def ship_dataset():
    """The dataset whose transport cost the warm-up comparison measures
    (larger than the paper-scale set so shipping, not interpreter boot,
    is what differs between the two transports)."""
    return generate_study_dataset(AntStudyConfig(n_trajectories=N_SHIP_TRAJ, seed=13))


def _pid_probe(_: int) -> int:
    """Trivial pool task (module-level so spawn children can import it)."""
    return os.getpid()


def _stroke(arena, i: int = 0):
    r = arena.radius
    x0 = -r + 0.12 * r * i
    return stroke_from_rect((x0, -0.6 * r), (x0 + 0.3 * r, 0.5 * r), 0.1 * r, "red")


def _pool_warmup_s(n_workers: int, initializer, initargs) -> float:
    """Seconds to bring up a spawn pool, run every initializer, drain a
    trivial task per worker, and shut back down.

    Uses ``mp.Pool`` deliberately: it starts all ``n_workers`` processes
    in the constructor, and ``close()``/``join()`` cannot finish until
    each worker has run its initializer and reached the task loop — so
    the measurement always covers N full initializer payloads.
    ``ProcessPoolExecutor`` spawns lazily and would reuse the first
    booted worker for every probe while the others are still shipping.
    """
    ctx = mp.get_context("spawn")
    t0 = time.perf_counter()
    pool = ctx.Pool(n_workers, initializer, initargs)
    try:
        pool.map(_pid_probe, range(n_workers))
    finally:
        pool.close()
        pool.join()
    return time.perf_counter() - t0


def _drive_session(session, arena, i: int) -> list[float]:
    """One user's brushing script; returns per-query latencies."""
    session.brush(_stroke(arena, i))
    latencies = []
    for q in range(N_QUERIES_PER_SESSION):
        session.set_time_window(TimeWindow.end(0.12 + 0.1 * ((i + q) % 7)))
        t0 = time.perf_counter()
        session.run_query("red")
        latencies.append(time.perf_counter() - t0)
    return latencies


def test_q3_shared_store(full_dataset, ship_dataset, viewport, arena, host, report_sink):
    with SharedArenaStore.publish(ship_dataset) as ship_store:
        # --- init payload: what each tile owner's start costs on the wire
        pickle_args = (ship_dataset, arena, viewport)
        shm_args = (ship_store.handle, arena, viewport)
        pickle_bytes = len(pickle.dumps(pickle_args))
        shm_bytes = len(pickle.dumps(shm_args))

        # --- spawn-pool warm-up at 1/4/8 workers ------------------------
        warmup = {}
        for n in WORKER_COUNTS:
            t_pickle = _pool_warmup_s(n, _init_owner, pickle_args)
            t_shm = _pool_warmup_s(n, _init_owner, shm_args)
            warmup[str(n)] = {
                "pickle_ship_s": round(t_pickle, 4),
                "shm_attach_s": round(t_shm, 4),
                "speedup": round(t_pickle / t_shm, 2) if t_shm > 0 else float("inf"),
            }

    with SharedArenaStore.publish(full_dataset) as store:
        # --- parallel frame render over the store -----------------------
        # Wall-size brushed frames: a 4x2-panel wall at 256x144 px per
        # panel, an 8x4 small-multiple grid, and a 6-stamp 3-color brush
        # with its highlights evaluated once in the parent.  Batches
        # amortize the per-(cell geometry, color) footprint raster
        # across each worker's tile list; tile pixels ship back through
        # the result queue.
        from repro.core.engine import CoordinatedBrushingEngine
        from repro.display.bezel import BezelSpec
        from repro.display.viewport import Viewport
        from repro.display.wall import DisplayWall
        from repro.layout.cells import assign_sequential
        from repro.layout.grid import BezelAwareGrid
        from repro.parallel.tilerender import render_viewport_parallel
        from repro.render.pipeline import WallRenderer
        from repro.stereo.camera import Eye
        from repro.synth.arena import Arena

        wall = DisplayWall(
            cols=4, rows=2, panel_width=0.3, panel_height=0.16875,
            panel_px_width=256, panel_px_height=144, bezel=BezelSpec(),
        )
        frame_viewport = Viewport(wall)
        grid = BezelAwareGrid(frame_viewport, 8, 4)
        assignment = assign_sequential(full_dataset, grid)
        engine = CoordinatedBrushingEngine(full_dataset)
        colors = ("red", "blue", "green")
        r = arena.radius

        def brushed(dy: tuple[float, ...]):
            """The 6-stamp 3-color brush, stroke i moved dy[i] radii
            north, and its query results."""
            canvas = BrushCanvas()
            for i in range(6):
                x0, y = -r + 0.22 * r * i, dy[i] * r
                canvas.add(
                    stroke_from_rect(
                        (x0, -0.6 * r + y), (x0 + 0.3 * r, 0.5 * r + y),
                        0.1 * r, colors[i % 3],
                    )
                )
            return canvas, engine.query_all_colors(canvas, assignment=assignment)

        canvas, results = brushed((0.0,) * 6)

        def fresh() -> WallRenderer:
            """A renderer with no retained bases: its frame is cold."""
            return WallRenderer(full_dataset, Arena(), frame_viewport)

        def _best_of(n_reps, **kw):
            best = None
            for _ in range(n_reps):
                report = render_viewport_parallel(
                    fresh(), assignment, canvas=canvas, results=results, **kw
                )
                if best is None or report.elapsed_s < best.elapsed_s:
                    best = report
            return best

        def _assert_identical(a, b):
            for eye in (Eye.LEFT, Eye.RIGHT):
                for key in a.frames[eye]:
                    np.testing.assert_array_equal(
                        a.frames[eye][key].data, b.frames[eye][key].data
                    )

        serial = _best_of(3, max_workers=0)
        pooled = _best_of(3, max_workers=4, store=store)
        assert not pooled.degraded, pooled.degradation.summary()
        _assert_identical(serial, pooled)  # acceptance: bit-identical

        # retained: each repetition replaces one color's first stroke
        # and re-renders on a renderer that kept the previous bases, and
        # on a renderer whose tile owners kept theirs
        warm, pooled_warm = fresh(), fresh()
        render_viewport_parallel(
            warm, assignment, canvas=canvas, results=results, max_workers=0
        )
        render_viewport_parallel(
            pooled_warm, assignment, canvas=canvas, results=results,
            max_workers=pooled.workers, store=store,
        )
        dy = [0.0] * 6
        retained_s, pooled_retained_s = math.inf, math.inf
        for i in range(3):
            dy[i] = 0.1
            tick_canvas, tick_results = brushed(tuple(dy))
            tick = render_viewport_parallel(
                warm, assignment, canvas=tick_canvas, results=tick_results,
                max_workers=0,
            )
            pooled_tick = render_viewport_parallel(
                pooled_warm, assignment, canvas=tick_canvas, results=tick_results,
                max_workers=pooled.workers, store=store,
            )
            assert not pooled_tick.degraded, pooled_tick.degradation.summary()
            assert pooled_tick.bases_built == 0  # the owners kept their bases
            retained_s = min(retained_s, tick.elapsed_s)
            pooled_retained_s = min(pooled_retained_s, pooled_tick.elapsed_s)
        cold = render_viewport_parallel(
            fresh(), assignment, canvas=tick_canvas, results=tick_results,
            max_workers=0,
        )
        _assert_identical(tick, cold)
        _assert_identical(pooled_tick, cold)

        def _stages(report):
            s = report.stage_seconds
            return {
                "dispatch_s": round(s.get("dispatch", 0.0), 4),
                "render_worker_total_s": round(s.get("render", 0.0), 4),
                "shipback_s": round(s.get("shipback", 0.0), 4),
                "assemble_s": round(s.get("assemble", 0.0), 4),
            }

        frame = {
            "serial_s": round(serial.elapsed_s, 4),
            "serial_retained_s": round(retained_s, 4),
            # the pool's decision rule: the warm pooled frame must beat
            # the warm serial one (information only; not gated)
            "pooled_retained_s": round(pooled_retained_s, 4),
            "retained_base_bytes": sum(base.nbytes for base in warm._bases.values()),
            "retained_overlay_bytes": sum(
                layer.nbytes for layer in warm._overlay.values()
            ),
            "retained_overlay_layers": len(warm._overlay),
            "pooled_shipback_s": round(pooled.elapsed_s, 4),
            "workers": pooled.workers,
            "n_jobs": pooled.n_jobs,
            "n_batches": pooled.n_batches,
            "bit_identical": True,
            # the CI render-bench gate: the batched pooled render must
            # not lose to serial on a wall-size brushed frame
            "pooled_beats_serial": bool(pooled.elapsed_s <= serial.elapsed_s),
            "speedup": round(serial.elapsed_s / pooled.elapsed_s, 2),
            "shipback_stages": _stages(pooled),
            "serial_render_s": round(
                serial.stage_seconds.get("render", serial.elapsed_s), 4
            ),
        }

    # --- 1 vs 8 concurrent sessions over one DatasetService -------------
    with DatasetService(full_dataset) as service:
        solo = service.session(viewport)
        t0 = time.perf_counter()
        solo_lat = _drive_session(solo, arena, 0)
        solo_wall = time.perf_counter() - t0

        views = [service.session(viewport) for _ in range(N_SESSIONS)]
        all_lat: list[list[float]] = [[] for _ in range(N_SESSIONS)]
        barrier = threading.Barrier(N_SESSIONS)

        def run(i: int) -> None:
            barrier.wait(timeout=60)
            all_lat[i] = _drive_session(views[i], arena, i)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(N_SESSIONS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        multi_wall = time.perf_counter() - t0
        flat = [x for lat in all_lat for x in lat]
        sessions = {
            "queries_per_session": N_QUERIES_PER_SESSION,
            "solo": {
                "median_query_s": round(statistics.median(solo_lat), 5),
                "wall_s": round(solo_wall, 4),
            },
            "concurrent_8": {
                "median_query_s": round(statistics.median(flat), 5),
                "wall_s": round(multi_wall, 4),
            },
            "resident_packed_copies": 1,
            "cache": service.engine.cache_stats(),
        }

    payload = {
        "bench": "Q3",
        "title": "zero-copy shared-memory data plane",
        "host": host._asdict(),
        "dataset": {
            "n_trajectories": len(full_dataset),
            "n_segments": int(full_dataset.packed().n_segments),
        },
        "ship_dataset": {"n_trajectories": len(ship_dataset)},
        "init_payload": {
            "pickle_ship_bytes": pickle_bytes,
            "shm_handle_bytes": shm_bytes,
            "reduction": round(pickle_bytes / shm_bytes, 1),
        },
        "pool_warmup_spawn": warmup,
        "frame_render": frame,
        "sessions": sessions,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_Q3.json").write_text(json.dumps(payload, indent=2))

    lines = [
        host.line,
        f"ship dataset: {len(ship_dataset)} trajectories "
        f"(sessions/frames: {len(full_dataset)})",
        f"init payload: pickle-ship {pickle_bytes / 1e6:.1f} MB vs "
        f"handle {shm_bytes} B  ({pickle_bytes / shm_bytes:.0f}x smaller)",
        "spawn-pool warm-up (all workers initialized + drained):",
    ]
    for n in WORKER_COUNTS:
        w = warmup[str(n)]
        lines.append(
            f"  {n} workers: pickle {w['pickle_ship_s'] * 1e3:8.1f} ms | "
            f"shm {w['shm_attach_s'] * 1e3:8.1f} ms | {w['speedup']:.1f}x"
        )
    lines += [
        f"parallel frame render ({frame['workers']} workers, "
        f"{frame['n_jobs']} jobs in {frame['n_batches']} batches, "
        f"best of 3): serial {frame['serial_s'] * 1e3:.1f} ms vs "
        f"pooled {frame['pooled_shipback_s'] * 1e3:.1f} ms "
        f"({frame['speedup']:.2f}x, bit-identical, "
        f"pooled_beats_serial={frame['pooled_beats_serial']})",
        f"  pooled stages: dispatch "
        f"{frame['shipback_stages']['dispatch_s'] * 1e3:.1f} ms | "
        f"render (worker total) "
        f"{frame['shipback_stages']['render_worker_total_s'] * 1e3:.1f} ms | "
        f"ship-back {frame['shipback_stages']['shipback_s'] * 1e3:.1f} ms | "
        f"assemble {frame['shipback_stages']['assemble_s'] * 1e3:.1f} ms",
        f"retained serial frame (one color's stroke replaced, best of 3): "
        f"{frame['serial_retained_s'] * 1e3:.1f} ms, bit-identical to a cold "
        f"render; retained {frame['retained_base_bytes'] / 1e6:.1f} MB of bases "
        f"and {frame['retained_overlay_bytes'] / 1e6:.2f} MB in "
        f"{frame['retained_overlay_layers']} overlay layers",
        f"retained pooled frame ({frame['workers']} tile owners, same ticks, "
        f"best of 3): {frame['pooled_retained_s'] * 1e3:.1f} ms, bit-identical "
        f"to a cold render",
        f"sessions: solo median query "
        f"{sessions['solo']['median_query_s'] * 1e3:.2f} ms vs 8 concurrent "
        f"{sessions['concurrent_8']['median_query_s'] * 1e3:.2f} ms "
        f"(one resident copy, shared stage cache)",
        "machine-readable: out/BENCH_Q3.json",
    ]
    report_sink("Q3", "zero-copy shared-memory data plane", lines)

    # acceptance: per-worker init payload is O(handle), not O(dataset)
    assert shm_bytes < 16_384, f"handle ship unexpectedly large: {shm_bytes}B"
    assert pickle_bytes > 100 * shm_bytes
    # acceptance: >= 2x faster pool warm-up at 8 workers
    assert warmup["8"]["speedup"] >= 2.0, warmup["8"]
