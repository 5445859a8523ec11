"""R1 — frame-completion latency under injected owner crashes.

The resilience counterpart of E11: renders the share-nothing tile-eye
jobs on a renderer's two tile owners (:class:`SupervisedPool` workers
that live across frames and keep their tiles' base layers) while a
targeted :class:`FaultPlan` hard-crashes 0, 1 or 2 owners on their
first attempt.  The claim under test is the layer's contract: failure
moves *latency*, never *pixels* — every frame must be bit-identical to
the serial render, with the degradation report accounting for each
injected crash.

A crashed owner is respawned within the frame and its batch retried
there; the new owner has no retained bases, so it renders its tiles
cold.  That frame's latency is the recovery cost of keeping state in
owners.  The frame after it is warm again: the retry rebuilt the bases.

A deliberately small wall (6 panels, 120x68 px each) keeps the jobs
cheap so the timing differences are dominated by respawn/retry
overhead, which is what R1 measures.
"""

import numpy as np
import pytest

from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.parallel.tilerender import owner_pids, render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.stereo.camera import Eye
from repro.synth.arena import Arena

pytestmark = pytest.mark.resilience

#: Owners crashed on their first attempt, per scenario (of 2 owners,
#: each owning one batch: fault job b is owner b's batch).
SCENARIOS = (0, 1, 2)
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.01)
NO_FAULTS = FaultPlan()  # also overrides a REPRO_FAULTS environment plan


@pytest.fixture(scope="module")
def setup(full_dataset):
    wall = DisplayWall(
        cols=6, rows=1, panel_width=0.3, panel_height=0.16875,
        panel_px_width=120, panel_px_height=68, bezel=BezelSpec(),
    )
    viewport = Viewport(wall)
    grid = BezelAwareGrid(viewport, 12, 2)
    assignment = assign_sequential(full_dataset, grid)

    def renderer() -> WallRenderer:
        """A fresh renderer: nothing retained, no owners yet."""
        return WallRenderer(full_dataset, Arena(), viewport)

    return renderer, assignment


def _check_identical(serial, report):
    for eye in (Eye.LEFT, Eye.RIGHT):
        for key in serial.frames[eye]:
            np.testing.assert_array_equal(
                serial.frames[eye][key].data, report.frames[eye][key].data
            )


def test_r1_latency_under_failure(setup, report_sink, benchmark):
    renderer, assignment = setup
    serial = render_viewport_parallel(renderer(), assignment, max_workers=0)
    warm = renderer()

    def frame(plan: FaultPlan):
        report = render_viewport_parallel(
            warm, assignment, max_workers=2, fault_plan=plan, retry_policy=POLICY,
        )
        _check_identical(serial, report)
        return report

    first = frame(NO_FAULTS)  # brings the owners up; every base is cold
    # headline number: the healthy warm frame
    healthy = benchmark.pedantic(frame, args=(NO_FAULTS,), rounds=1, iterations=1)
    assert not healthy.degraded and healthy.bases_built == 0

    lines = [
        f"{serial.n_jobs} tile-eye jobs, 2 tile owners, "
        f"retry {POLICY.max_attempts} attempts / {POLICY.base_delay_s * 1000:.0f} ms base delay",
        f"{'serial reference (cold):':<34}{serial.elapsed_s:6.3f} s",
        f"{'first pooled frame (bring-up):':<34}{first.elapsed_s:6.3f} s   "
        f"({first.bases_built} bases built)",
    ]
    for n_crashed in SCENARIOS:
        before = owner_pids(warm)
        if n_crashed == 0:
            report = healthy
        else:
            report = frame(FaultPlan(specs=tuple(
                FaultSpec("crash", job=b, times=1) for b in range(n_crashed)
            )))
        # every row injected what it names: each targeted owner crashed
        # on attempt 0 and was replaced, and no other owner was
        degr = report.degradation
        crashed = {e.job for e in degr.events
                   if e.kind == "injected-crash" and e.attempt == 0}
        assert crashed == set(range(n_crashed)), degr.summary()
        after = owner_pids(warm)
        assert [b for b in range(2) if after[b] != before[b]] == sorted(crashed)
        lines.append(
            f"{f'{n_crashed} owner(s) crashed:':<34}{report.elapsed_s:6.3f} s   "
            f"({len(crashed)} injected crash(es), {degr.n_retried} retried, "
            f"{degr.n_fallbacks} serial fallback(s), {report.bases_built} bases rebuilt)"
        )
    after_crash = frame(NO_FAULTS)
    assert not after_crash.degraded
    lines += [
        f"{'frame after the crashes:':<34}{after_crash.elapsed_s:6.3f} s   "
        f"({after_crash.bases_built} bases rebuilt)",
        "(every frame bit-identical to the serial reference; a crashed",
        " owner is respawned and retried within its frame, rendering its",
        " tiles cold, so the next frame finds its bases again; exhausted",
        " batches fall back to in-process serial execution)",
    ]
    report_sink("R1", "frame latency under injected owner crashes", lines)
