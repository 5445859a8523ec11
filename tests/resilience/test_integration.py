"""End-to-end resilience: the acceptance scenarios of the layer.

Three stories, each asserting that failure changes *latency and
accounting*, never results:

* a seeded 30%-crash fault plan under parallel tile rendering still
  produces bit-identical framebuffers, with every planned fault
  accounted for in the degradation report;
* a failed summary-pyramid build degrades the query engine to the
  brute-force path — bit-identical to the brute-force oracle,
  ``degraded`` flagged on every query, nothing tainted cached, nothing
  raised;
* a session journal survives a crash (torn final line) and replays to
  the same query answers.
"""

import numpy as np
import pytest

from repro.core.brush import BrushStroke, stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.session import ExplorationSession, SessionJournal, replay_session
from repro.core.temporal import TimeWindow
from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_groups_to_cells, assign_sequential
from repro.layout.configs import preset
from repro.layout.grid import BezelAwareGrid
from repro.layout.groups import TrajectoryGroups
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.stereo.camera import Eye
from repro.synth.arena import Arena

pytestmark = pytest.mark.resilience

FAST = RetryPolicy(max_attempts=3, base_delay_s=0.0)


@pytest.fixture(scope="module")
def render_setup(study_dataset):
    wall = DisplayWall(
        cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
        panel_px_width=120, panel_px_height=68, bezel=BezelSpec(),
    )
    viewport = Viewport(wall)
    grid = BezelAwareGrid(viewport, 4, 2)
    renderer = WallRenderer(study_dataset, Arena(), viewport)
    assignment = assign_sequential(study_dataset, grid)
    return renderer, assignment


def _frames_equal(a, b):
    for eye in (Eye.LEFT, Eye.RIGHT):
        assert set(a.frames[eye]) == set(b.frames[eye])
        for key in a.frames[eye]:
            np.testing.assert_array_equal(
                a.frames[eye][key].data, b.frames[eye][key].data
            )


class TestRenderingUnderFaults:
    def test_thirty_percent_crashes_bit_identical(self, render_setup):
        renderer, assignment = render_setup
        serial = render_viewport_parallel(renderer, assignment, max_workers=0)
        # fault job indices address batches (one submit per worker); at
        # 2 workers the 4 (2 tiles x 2 eyes) jobs deal into 2 batches.
        # seed 6 fires on batch 1 at attempt 0 and on none at attempt 1:
        # the crash is absorbed by one respawn-and-retry round
        plan = FaultPlan.crash_fraction(0.3, seed=6)
        faulty = render_viewport_parallel(
            renderer, assignment, max_workers=2,
            fault_plan=plan, retry_policy=FAST,
        )
        assert faulty.n_batches == 2
        planned = set(plan.planned_jobs(faulty.n_batches))
        assert planned, "plan must actually fire for this test to bite"
        _frames_equal(serial, faulty)
        report = faulty.degradation
        assert faulty.degraded and report.degraded
        # no silent drops: every planned fault shows up in the accounting,
        # attributed as *injected* (collateral pool-death events on the
        # other in-flight batches stay plain "crash")
        injected = {e.job for e in report.events if e.kind == "injected-crash"}
        assert planned <= injected
        assert planned <= report.jobs_touched()

    def test_error_faults_fall_back_serial(self, render_setup):
        renderer, assignment = render_setup
        serial = render_viewport_parallel(renderer, assignment, max_workers=0)
        # every attempt of every batch errors: all batches must complete
        # on the bottom rung of the ladder (in-process serial fallback)
        plan = FaultPlan(specs=(FaultSpec("error", p=1.0),))
        faulty = render_viewport_parallel(
            renderer, assignment, max_workers=2,
            fault_plan=plan, retry_policy=FAST,
        )
        _frames_equal(serial, faulty)
        assert faulty.degradation.n_fallbacks == faulty.n_batches == 2

    def test_healthy_run_reports_clean(self, render_setup):
        renderer, assignment = render_setup
        report = render_viewport_parallel(
            renderer, assignment, max_workers=2, retry_policy=FAST
        )
        assert not report.degraded
        assert report.degradation.n_events == 0


class TestEngineDegradation:
    def _canvas(self, arena):
        canvas = BrushCanvas()
        r = arena.radius
        canvas.add(
            stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red")
        )
        return canvas

    def test_index_build_failure_degrades_every_query(
        self, unbuilt_engine, study_dataset, arena, viewport
    ):
        """The one failure rung: a pyramid that failed to build leaves
        the engine answering by brute force — bit-equal to the oracle,
        ``index-build-failure`` on every query, and no tainted stage in
        the cache, however the queries interleave."""
        engine = unbuilt_engine
        oracle = CoordinatedBrushingEngine(study_dataset, use_index=False)
        r = arena.radius
        canvas = self._canvas(arena)
        canvas.add(BrushStroke(np.array([[0.3 * r, 0.2 * r]]), 0.2 * r, "blue"))
        grid = preset("2").build(viewport)
        assignment = assign_groups_to_cells(
            study_dataset, grid, TrajectoryGroups.fig3_scheme(grid)
        )
        specs = [
            (color, window, asg)
            for color in ("red", "blue")
            for window in (TimeWindow.all(), TimeWindow.end(0.3),
                           TimeWindow.absolute(5.0, 40.0))
            for asg in (None, assignment)
        ]
        for _ in range(2):  # the repeat must not be served tainted stages
            for color, window, asg in specs:
                got = engine.query(canvas, color, window=window, assignment=asg)
                want = oracle.query(canvas, color, window=window, assignment=asg)
                np.testing.assert_array_equal(got.segment_mask, want.segment_mask)
                np.testing.assert_array_equal(got.traj_mask, want.traj_mask)
                np.testing.assert_array_equal(
                    got.traj_highlight_time, want.traj_highlight_time
                )
                assert got.group_support == want.group_support
                assert got.trace.strategy == "brute-force"
                assert got.degraded and not want.degraded
                assert got.degradation.by_kind() == {"index-build-failure": 1}
                assert got.degradation.by_action() == {"degraded-brute-force": 1}
                tainted = [s.stage for s in got.trace.stages if s.degraded]
                assert "brush_hit" in tainted
                assert not any(s.cache_hit for s in got.trace.stages if s.degraded)
        # only the pyramid-independent temporal stage was ever cached
        assert {key[0] for key in engine.cache.keys()} == {"temporal_mask"}

    def test_healthy_query_not_degraded(self, study_dataset, arena):
        engine = CoordinatedBrushingEngine(study_dataset, use_index=True)
        result = engine.query(self._canvas(arena), "red")
        assert not result.degraded
        assert result.degradation is None


class TestJournalReplay:
    def _drive(self, session, arena):
        r = arena.radius
        session.enable_fig3_groups()
        session.brush(
            stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red")
        )
        session.set_time_window(TimeWindow.end(0.15))
        return session.run_query("red")

    def test_replay_reproduces_query(self, study_dataset, viewport, arena, tmp_path):
        journal = tmp_path / "session.jsonl"
        session = ExplorationSession(
            study_dataset, viewport, layout_key="2", journal_path=journal
        )
        original = self._drive(session, arena)
        session.close()

        replayed = replay_session(journal, study_dataset, viewport)
        assert replayed.layout is session.layout or replayed.layout.key == "2"
        result = replayed.run_query("red")
        np.testing.assert_array_equal(original.traj_mask, result.traj_mask)
        assert replayed.window == session.window

    def test_torn_final_line_tolerated(self, study_dataset, viewport, arena, tmp_path):
        journal = tmp_path / "session.jsonl"
        session = ExplorationSession(
            study_dataset, viewport, layout_key="2", journal_path=journal
        )
        original = self._drive(session, arena)
        session.close()
        # the crash: a record half-written when the process died
        with journal.open("a") as fh:
            fh.write('{"kind": "query", "det')

        replayed = replay_session(journal, study_dataset, viewport)
        result = replayed.run_query("red")
        np.testing.assert_array_equal(original.traj_mask, result.traj_mask)

    def test_earlier_corruption_raises(self, tmp_path):
        journal = tmp_path / "bad.jsonl"
        journal.write_text('{"kind": "layout", "detail": {"key": "2"}}\n'
                           "garbage not json\n"
                           '{"kind": "erase", "detail": {"color": "*"}}\n')
        with pytest.raises(ValueError, match="corrupt journal line"):
            SessionJournal.read(journal)

    def test_journal_appends_are_durable_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SessionJournal(path) as journal:
            journal.append("layout", {"key": "1"})
            journal.append("erase", {"color": "*"})
        records = SessionJournal.read(path)
        assert [r["kind"] for r in records] == ["layout", "erase"]
        with pytest.raises(RuntimeError):
            journal.append("late", {})
