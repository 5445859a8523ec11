"""R1 — frame-completion latency under injected worker failure.

The resilience counterpart of E11: renders the same share-nothing
tile-eye jobs through :class:`SupervisedPool` while a seeded
:class:`FaultPlan` hard-crashes a fraction of first attempts (0%, 10%,
30%).  The claim under test is the layer's contract: failure moves
*latency*, never *pixels* — every run must produce framebuffers
bit-identical to the serial render, with the degradation report
accounting for each injected crash.

A deliberately small wall (6 panels, 120x68 px each) keeps the jobs
cheap so the timing differences are dominated by respawn/retry
overhead, which is what R1 measures.

Every run gets a fresh renderer: a renderer keeps the base layers of
its last frame, and forked pool workers would inherit them, so a
shared one would time later runs warm against a cold reference.
"""

import numpy as np
import pytest

from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.resilience import FaultPlan, RetryPolicy
from repro.stereo.camera import Eye
from repro.synth.arena import Arena

pytestmark = pytest.mark.resilience

#: Crash fraction per scenario; seed 2 fires on 1/12 jobs at p=0.1 and
#: 3/12 at p=0.3 — close to nominal on this small job count.
SCENARIOS = (0.0, 0.1, 0.3)
SEED = 2
POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.0)


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
        """A fresh renderer: nothing retained, every run is cold."""
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

    # headline number: the healthy parallel render
    healthy = benchmark.pedantic(
        render_viewport_parallel,
        args=(renderer(), assignment),
        kwargs=dict(max_workers=2, retry_policy=POLICY),
        rounds=1,
        iterations=1,
    )
    _check_identical(serial, healthy)

    lines = [
        f"{serial.n_jobs} tile-eye jobs, 2 workers, "
        f"retry {POLICY.max_attempts} attempts / {POLICY.base_delay_s * 1000:.0f} ms base delay",
        f"serial reference:        {serial.elapsed_s:6.3f} s",
    ]
    for p in SCENARIOS:
        if p == 0.0:
            report, plan = healthy, None
        else:
            plan = FaultPlan.crash_fraction(p, seed=SEED)
            report = render_viewport_parallel(
                renderer(), assignment, max_workers=2,
                fault_plan=plan, retry_policy=POLICY,
            )
            _check_identical(serial, report)
        # fault job indices address batches (one submit per worker)
        n_injected = len(plan.planned_jobs(report.n_batches)) if plan else 0
        degr = report.degradation
        lines.append(
            f"crash fraction {p:4.0%}:      {report.elapsed_s:6.3f} s   "
            f"({n_injected} injected crash(es), {degr.n_retried} retried, "
            f"{degr.n_fallbacks} serial fallback(s))"
        )
        # the contract: failures cost time, never correctness
        assert not plan or set(plan.planned_jobs(report.n_batches)) <= degr.jobs_touched()
    lines += [
        "(every run bit-identical to the serial reference; injected",
        " crashes are absorbed by pool respawn + retry, exhausted jobs",
        " fall back to in-process serial execution)",
    ]
    report_sink("R1", "frame latency under injected worker crashes", lines)
