"""Chaos: the pooled ship-back render under injected failures.

Every scenario asserts the same two invariants:

* the assembled frame is **byte-identical** to the serial render — a
  crashed or hung worker never leaves a torn, stale, or missing tile:
  only a surviving attempt's return value reaches assembly;
* no shared-memory block outlives the frame — the pooled path creates
  none of its own, and a published store survives the pool's death
  and is torn down by its owner, so ``/dev/shm`` holds no ``repro_*``
  segment afterwards (the autouse leak fixture checks the same diff
  around every test).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.brush import stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.parallel.tilerender import owner_pids, render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.stereo.camera import Eye
from repro.store import SharedArenaStore, live_blocks
from repro.synth.arena import Arena

pytestmark = pytest.mark.chaos

FAST = RetryPolicy(max_attempts=3, base_delay_s=0.0)


@pytest.fixture(scope="module")
def setup(study_dataset):
    wall = DisplayWall(
        cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
        panel_px_width=64, panel_px_height=36, bezel=BezelSpec(),
    )
    viewport = Viewport(wall)
    grid = BezelAwareGrid(viewport, 4, 2)
    renderer = WallRenderer(study_dataset, Arena(), viewport)
    assignment = assign_sequential(study_dataset, grid)
    canvas = BrushCanvas()
    r = Arena().radius
    canvas.add(
        stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red")
    )
    serial = render_viewport_parallel(
        renderer, assignment, canvas=canvas, max_workers=0
    )
    return renderer, assignment, canvas, serial


def _frames_equal(a, b):
    for eye in (Eye.LEFT, Eye.RIGHT):
        assert set(a.frames[eye]) == set(b.frames[eye])
        for key in a.frames[eye]:
            np.testing.assert_array_equal(
                a.frames[eye][key].data, b.frames[eye][key].data
            )


def _no_blocks_left():
    assert not live_blocks()
    shm = Path("/dev/shm")
    if shm.is_dir():
        assert not list(shm.glob("repro_*"))


class TestShipBackChaos:
    def test_worker_crash_leaves_no_blank_tile(self, setup):
        """Batch 0's worker hard-exits before returning; the respawned
        worker re-renders every tile of the batch."""
        renderer, assignment, canvas, serial = setup
        plan = FaultPlan(specs=(FaultSpec("crash", job=0, times=1),))
        report = render_viewport_parallel(
            renderer, assignment, canvas=canvas, max_workers=2,
            fault_plan=plan, retry_policy=FAST,
        )
        assert report.degraded
        assert "injected-crash" in report.degradation.by_kind()
        _frames_equal(serial, report)
        _no_blocks_left()

    def test_total_failure_completes_via_shipback_fallback(self, setup):
        """Every attempt of every batch errors: the frame completes on
        the in-parent serial rung, which renders each batch's job list
        with the same helper the workers use."""
        renderer, assignment, canvas, serial = setup
        plan = FaultPlan(specs=(FaultSpec("error", p=1.0),))
        report = render_viewport_parallel(
            renderer, assignment, canvas=canvas, max_workers=2,
            fault_plan=plan, retry_policy=FAST,
        )
        assert report.degradation.n_fallbacks == report.n_batches == 2
        _frames_equal(serial, report)
        assert "assemble" in report.stage_seconds
        _no_blocks_left()

    def test_crash_with_store_transport(self, setup, study_dataset):
        """Crash recovery composes with the shared-store input
        transport: the arena block survives the pool death and is torn
        down by its owner afterwards."""
        renderer, assignment, canvas, serial = setup
        plan = FaultPlan(specs=(FaultSpec("crash", job=1, times=1),))
        with SharedArenaStore.publish(study_dataset) as store:
            report = render_viewport_parallel(
                renderer, assignment, canvas=canvas, max_workers=2,
                fault_plan=plan, retry_policy=FAST, store=store,
            )
            assert report.degraded
            assert not report.degradation.by_kind().get("shm-attach-failure")
            _frames_equal(serial, report)
        _no_blocks_left()

    def test_hung_owner_is_killed_and_only_it_is_respawned(self, setup):
        """Owner 0 hangs on a warm frame: the attempt timeout kills it,
        its batch is retried on a respawned owner 0 (cold: its bases
        died with it) while owner 1 keeps its process, and the next
        frame finds every base retained again."""
        renderer, assignment, canvas, serial = setup
        warm = WallRenderer(renderer.dataset, renderer.arena, renderer.viewport)
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, attempt_timeout_s=2.0)

        def frame(plan):
            return render_viewport_parallel(
                warm, assignment, canvas=canvas, max_workers=2,
                fault_plan=plan, retry_policy=policy,
            )

        frame(FaultPlan())
        pids = owner_pids(warm)
        hung = frame(FaultPlan(specs=(FaultSpec("hang", job=0, times=1, delay_s=60.0),)))
        _frames_equal(serial, hung)
        events = [(e.kind, e.scope, e.action) for e in hung.degradation.events]
        assert events == [
            ("timeout", "worker", "respawned"), ("injected-hang", "job", "retried"),
        ]
        respawned = owner_pids(warm)
        assert respawned[0] != pids[0] and respawned[1] == pids[1]
        after = frame(FaultPlan())
        assert not after.degraded and after.bases_built == 0
        assert owner_pids(warm) == respawned
        _frames_equal(serial, after)
        _no_blocks_left()
