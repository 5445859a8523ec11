"""The four analyst workloads of the interaction benchmark.

``run.py`` starts this file once per workload run, in a fresh process:

    python benchmarks/interaction/workloads.py --workload brush-frame \\
        --seed 1 --seconds 20 --trace 0

It prints what it measured as one JSON object on the last line of
standard output.  ``run.py`` turns that into the benchmark's result.

Every run has the same phases:

1. Inputs.  The paper-scale dataset (500 trajectories, the study's
   default seed) plus the seeded inputs: strokes, slider positions,
   ingest stream and oracle samples.  Not timed.
2. Set-up, repeated ``Size.setup_repeats`` times and reported as a
   median: dataset service, store publish, session open and render
   targets.
3. Warm-up.  The first strokes, queries and frame, so that caches and
   lazy state are filled before timing.
4. The measured loop, for ``--seconds``.  With ``--trace 1`` every
   other tick (every other round on ``analysts-ingest``) runs with
   the span wrappers of ``trace.py`` installed.  The untraced ticks
   give the tick statistics, and comparing the two halves gives
   ``trace.overhead_ratio``.
5. Oracles, on a seeded sample of ticks, outside the timed loop.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import resource
import sys
import time
import traceback
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.app import TrajectoryExplorer
from repro.core.brush import BrushStroke, stroke_from_rect
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.result import QueryResult
from repro.core.temporal import TimeWindow
from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.parallel import tilerender
from repro.render import compose
from repro.render.pipeline import WallRenderer
from repro.sensemaking.analyst import default_study_script
from repro.stereo.camera import Eye
from repro.store import DatasetService, IngestBuffer, RolloverCoordinator
from repro.synth import AntStudyConfig, Arena, generate_study_dataset
from repro.trajectory.dataset import TrajectoryDataset

sys.path.insert(0, str(Path(__file__).resolve().parent))
from trace import SpanRecorder, format_ledger, tick_ledger  # noqa: E402

ARENA = Arena()
COLORS = ("red", "blue", "green")
EYES = (Eye.LEFT, Eye.RIGHT)
SLIDER_HZ = 25.0
#: An event answered later than one slider period after it was due
#: misses its frame.
SLIDER_LIMIT_S = 1.0 / SLIDER_HZ


@dataclass(frozen=True)
class Size:
    """Run size.  ``FULL`` is the benchmark; ``SMOKE`` is for tests."""

    n_trajectories: int
    panel_px: tuple[int, int]
    setup_repeats: int
    min_ticks: int
    round_s: float
    rollover_every: int
    query_samples: int
    frame_samples: int
    #: per analyst thread; a brute-force exit hypothesis costs ~0.9 s
    hypothesis_samples: int


FULL = Size(n_trajectories=500, panel_px=(256, 144), setup_repeats=5, min_ticks=8,
            round_s=1.0, rollover_every=20, query_samples=4, frame_samples=2,
            hypothesis_samples=1)
SMOKE = Size(n_trajectories=60, panel_px=(64, 36), setup_repeats=2, min_ticks=4,
             round_s=0.2, rollover_every=1, query_samples=2, frame_samples=1,
             hypothesis_samples=1)


@dataclass
class Measured:
    """What one run measured; times in seconds."""

    setup_s: list[float] = field(default_factory=list)
    ticks_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    service_s: list[float] = field(default_factory=list)
    traced_service_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    rollover_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    misses: int = 0
    stale_ops: int = 0
    rebinds: int = 0
    peak_rss_mb: float = 0.0
    oracle_checks: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# -- shared helpers ------------------------------------------------------------

def q3_viewport(size: Size) -> Viewport:
    """The Q3 wall: 4x2 panels of 256x144 px.

    The pixel layout is BENCH_Q3's.  The metric sizes are exact binary
    fractions (0.25 m panels, 1/256 m bezels) where BENCH_Q3 uses 0.3 m
    and 4 mm.  With BENCH_Q3's sizes, some cells round to 129 px with
    the extra pixel on the left on one tile and on the right on
    another.  The pooled renderer's footprint cache is keyed by cell
    size only and shared across a batch's tiles, so it then draws the
    footprint one pixel off on tile column 2.  Such a frame is not
    byte-equal to the serial one (see README.md, "Known defect").
    """
    w, h = size.panel_px
    bezel = 1.0 / 256
    return Viewport(DisplayWall(
        cols=4, rows=2, panel_width=0.25, panel_height=0.25 * h / w,
        panel_px_width=w, panel_px_height=h,
        bezel=BezelSpec(bezel, bezel, bezel, bezel),
    ))


class StrokeStream:
    """Seeded 0.3 x 0.3 arena-radius square strokes, stratified over the arena.

    Stroke centres fall in a ``GRID`` x ``GRID`` tiling of the square
    [-0.6, 0.6]^2 (in arena radii).  Every ``GRID**2`` consecutive
    strokes visit each tile once, in a seeded order, at a uniform point
    inside it.  So every seed brushes the dense and the sparse parts of
    the arena equally often: the seed moves where strokes land, not a
    run's mix of query and render cost.  The size is fixed so that the
    seed does not change how many stamps the footprint SDF evaluates.
    """

    GRID = 4

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.tiles: list[int] = []

    def next(self, color: str) -> BrushStroke:
        if not self.tiles:
            self.tiles = [int(t) for t in self.rng.permutation(self.GRID ** 2)]
        ix, iy = divmod(self.tiles.pop(), self.GRID)
        u = (np.array([ix, iy]) + self.rng.uniform(size=2)) / self.GRID
        r = ARENA.radius
        half = 0.15 * r
        cx, cy = (1.2 * u - 0.6) * r
        return stroke_from_rect((cx - half, cy - half), (cx + half, cy + half), 0.1 * r, color)


def copy_canvas(canvas: BrushCanvas) -> BrushCanvas:
    """A new canvas with the same strokes in the same order."""
    out = BrushCanvas()
    for stroke in canvas.strokes():
        out.add(stroke)
    return out


def result_mismatch(got: QueryResult, want: QueryResult) -> str | None:
    """Name of the first field where two query results differ."""
    for name in ("segment_mask", "traj_mask", "traj_highlight_time", "displayed"):
        if not np.array_equal(getattr(got, name), getattr(want, name)):
            return name
    if got.group_support != want.group_support:
        return "group_support"
    return None


def frames_digest(frames: dict[Eye, dict[tuple[int, int], Any]]) -> str:
    h = hashlib.sha256()
    for eye in sorted(frames):
        for key in sorted(frames[eye]):
            h.update(repr((int(eye), key)).encode())
            h.update(frames[eye][key].data.tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


class Reservoir:
    """A seeded uniform sample of ``k`` items from a stream of unknown length.

    ``offer`` takes a thunk so that an item is only built when it is
    kept.
    """

    def __init__(self, k: int, rng: random.Random) -> None:
        self.k = k
        self.rng = rng
        self.n = 0
        self.items: list[Any] = []

    def offer(self, make: Callable[[], Any]) -> None:
        self.n += 1
        if len(self.items) < self.k:
            self.items.append(make())
            return
        j = self.rng.randrange(self.n)
        if j < self.k:
            self.items[j] = make()


class Workload:
    """Base: one service with a published store, plus per-workload state."""

    def __init__(self, ds: TrajectoryDataset, seed: int, seconds: float, size: Size) -> None:
        self.ds = ds
        self.seconds = seconds
        self.size = size
        self.vp = q3_viewport(size)
        self.inputs = np.random.default_rng([seed, 1])
        self.sampling = random.Random(f"oracle-{seed}")
        self.service: DatasetService | None = None
        self.open_sessions: list[Any] = []

    def open_service(self) -> None:
        self.service = DatasetService(self.ds)
        self.handle = self.service.publish_store()

    def open_session(self) -> Any:
        assert self.service is not None
        session = self.service.session(self.vp)
        self.open_sessions.append(session)
        return session

    def teardown(self) -> list[str]:
        """Close sessions and the service; returns broken invariants."""
        problems = []
        for session in self.open_sessions:
            session.close()
        self.open_sessions = []
        if self.service is not None:
            pins = self.service.stats()["pins"]
            if pins:
                problems.append(f"{pins} snapshot pins left after closing every session")
            self.service.close()
            self.service = None
        return problems

    def _tick_loop(self, m: Measured, rec: SpanRecorder | None,
                   prepare: Callable[[int], Any], tick: Callable[[int, Any], Any],
                   after: Callable[[int, Any], None]) -> None:
        """Closed loop: the next tick starts when the previous one ends.

        ``prepare(i)`` makes tick ``i``'s input, untimed; ``tick(i, input)``
        is timed; ``after(i, output)`` runs untimed.
        """
        t_start = time.perf_counter()
        i = 0
        while i < self.size.min_ticks or time.perf_counter() - t_start < self.seconds:
            traced = rec is not None and i % 2 == 1
            m.attempted += 1
            tick_input = prepare(i)
            with rec.traced(traced) if rec is not None else nullcontext():
                t0 = time.perf_counter()
                try:
                    with rec.tick(i) if traced else nullcontext():
                        out = tick(i, tick_input)
                except Exception:
                    m.fail(f"tick {i}: {traceback.format_exc()}")
                    out = None
                dt = time.perf_counter() - t0
            if out is not None:
                m.completed += 1
                (m.traced_s if traced else m.ticks_s).append(dt)
                after(i, out)
            i += 1
        m.loop_s = time.perf_counter() - t_start
        m.service_s, m.traced_service_s = m.ticks_s, m.traced_s


# -- brush-frame / brush-pooled --------------------------------------------------

class BrushFrame(Workload):
    """Replace one color's stroke, query it, render and compose the frame.

    ``workers=0`` renders serially in-process (``brush-frame``);
    ``workers=2`` renders on the pool over the published store
    (``brush-pooled``).  Both consume the same seeded stroke sequence.
    """

    workers = 0

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.strokes = StrokeStream(self.inputs)

    def setup(self) -> None:
        self.open_service()
        assert self.service is not None
        self.session = self.open_session()
        self.renderer = WallRenderer(self.service.dataset, ARENA, self.vp)
        self.assignment = assign_sequential(
            self.service.dataset, BezelAwareGrid(self.vp, 8, 4))
        self.results: dict[str, QueryResult] = {}

    def frame(self, canvas: BrushCanvas, results: dict[str, QueryResult]) -> Any:
        return tilerender.render_viewport_parallel(
            self.renderer, self.assignment, canvas=canvas, results=results,
            max_workers=self.workers,
            store=self.handle if self.workers else None,
        )

    def stroke(self, i: int) -> BrushStroke:
        return self.strokes.next(COLORS[i % len(COLORS)])

    def tick(self, i: int, stroke: BrushStroke) -> Any:
        color = stroke.color
        self.session.erase(color)
        self.session.brush(stroke)
        self.results[color] = self.session.run_query(color)
        report = self.frame(self.session.canvas, self.results)
        for eye in EYES:
            compose.compose_wall(self.vp.wall, report.frames[eye])
        return report

    def warm(self) -> None:
        for i in range(len(COLORS)):
            stroke = self.stroke(i)
            self.session.brush(stroke)
            self.results[stroke.color] = self.session.run_query(stroke.color)
        self.frame(self.session.canvas, self.results)

    def measure(self, m: Measured, rec: SpanRecorder | None) -> None:
        self.query_samples = Reservoir(self.size.query_samples, self.sampling)
        self.frame_samples = Reservoir(self.size.frame_samples, self.sampling)

        def after(i: int, report: Any) -> None:
            color = COLORS[i % len(COLORS)]
            canvas, results = copy_canvas(self.session.canvas), dict(self.results)
            self.query_samples.offer(lambda: (
                canvas, color, self.session.window, self.session.assignment,
                results[color]))
            if self.workers:
                self.frame_samples.offer(
                    lambda: (canvas, results, frames_digest(report.frames)))

        self._tick_loop(m, rec, self.stroke, self.tick, after)

    def check(self, m: Measured) -> None:
        oracle = CoordinatedBrushingEngine(self.ds, use_index=False)
        for canvas, color, window, assignment, got in self.query_samples.items:
            m.oracle_checks += 1
            want = oracle.query(canvas, color, window=window, assignment=assignment)
            bad = result_mismatch(got, want)
            if bad:
                m.fail(f"query {color}: {bad} differs from brute force")
        for canvas, results, digest in self.frame_samples.items:
            m.oracle_checks += 1
            serial = tilerender.render_viewport_parallel(
                self.renderer, self.assignment, canvas=canvas, results=results,
                max_workers=0)
            if frames_digest(serial.frames) != digest:
                m.fail("pooled frame differs from a serial re-render")


class BrushPooled(BrushFrame):
    workers = 2


# -- slider-scrub ----------------------------------------------------------------

class SliderScrub(Workload):
    """Open loop: temporal-slider moves at 25 Hz over a 3-color brush.

    The analyst brushes, scrubs, brushes elsewhere and scrubs again:
    the loop runs in ``SLIDER_SEGMENTS`` equal segments, each over its
    own seeded 3-color brush.  The re-brush between segments is not
    timed.  A slider move's cost depends on what the brush covers, so
    one brush per run would make the seed set the run's cost; several
    average it out.
    """

    SLIDER_SEGMENTS = 5
    WARM_MOVES = 5

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        strokes = StrokeStream(self.inputs)
        self.brushes = [[strokes.next(c) for c in COLORS]
                        for _ in range(self.SLIDER_SEGMENTS)]
        n = max(self.size.min_ticks, int(self.seconds * SLIDER_HZ)) + self.WARM_MOVES
        self.positions = self._drag(n)

    def _drag(self, n: int) -> list[tuple[float, float]]:
        """A seeded drag of the selected interval.

        Width and centre each take mean-reverting random steps, so that
        every run scrubs a similar mix of narrow and wide windows.  The
        walk reflects at its bounds rather than clipping, so no two
        consecutive events repeat a position.  A repeated position
        would be a no-op move that the slider ignores.
        """
        def reflect(x: float, lo: float, hi: float) -> float:
            while not lo <= x <= hi:
                x = 2 * lo - x if x < lo else 2 * hi - x
            return x

        center, width = 0.5, 0.3
        out = []
        for _ in range(n):
            width = reflect(width + 0.1 * (0.3 - width) + self.inputs.normal(0.0, 0.02),
                            0.05, 0.9)
            center = reflect(center + 0.02 * (0.5 - center) + self.inputs.normal(0.0, 0.03),
                             width / 2, 1.0 - width / 2)
            out.append((center - width / 2, center + width / 2))
        return out

    def setup(self) -> None:
        self.open_service()
        self.explorer = TrajectoryExplorer(service=self.service, viewport=self.vp)
        self.open_sessions.append(self.explorer.session)

    def rebrush(self, brush: list[BrushStroke]) -> None:
        """Replace the brush and fill the caches a scrub over it uses."""
        self.explorer.erase()
        for stroke in brush:
            self.explorer.brush(stroke)
        self.explorer.temporal_requery.requery()
        for lo, hi in self.positions[-self.WARM_MOVES:]:
            self.explorer.temporal_slider.set(lo, hi)

    def warm(self) -> None:
        self.rebrush(self.brushes[0])

    def measure(self, m: Measured, rec: SpanRecorder | None) -> None:
        self.samples = Reservoir(self.size.query_samples, self.sampling)
        slider = self.explorer.temporal_slider
        period = 1.0 / SLIDER_HZ
        n = max(self.size.min_ticks, int(self.seconds * SLIDER_HZ))
        for seg, brush in enumerate(self.brushes):
            if seg:
                self.rebrush(brush)
            first = seg * n // self.SLIDER_SEGMENTS
            events = self.positions[first:(seg + 1) * n // self.SLIDER_SEGMENTS]
            t_start = time.perf_counter()
            for j, (lo, hi) in enumerate(events):
                k = first + j
                due = t_start + j * period
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                traced = rec is not None and k % 2 == 1
                m.attempted += 1
                ok = True
                with rec.traced(traced) if rec is not None else nullcontext():
                    start = time.perf_counter()
                    try:
                        with rec.tick(k) if traced else nullcontext():
                            slider.set(lo, hi)
                    except Exception:
                        m.fail(f"event {k}: {traceback.format_exc()}")
                        ok = False
                    end = time.perf_counter()
                m.late_s.append(start - due)
                if not ok or end - due > SLIDER_LIMIT_S:
                    m.misses += 1
                if not ok:
                    continue
                m.completed += 1
                (m.traced_s if traced else m.ticks_s).append(end - due)
                (m.traced_service_s if traced else m.service_s).append(end - start)
                results = dict(self.explorer.temporal_requery.last_results)
                self.samples.offer(lambda lo=lo, hi=hi, results=results: (
                    copy_canvas(self.explorer.session.canvas), TimeWindow.fraction(lo, hi),
                    self.explorer.session.assignment, results))
            m.loop_s += time.perf_counter() - t_start

    def check(self, m: Measured) -> None:
        oracle = CoordinatedBrushingEngine(self.ds, use_index=False)
        for canvas, window, assignment, results in self.samples.items:
            for color in COLORS:
                m.oracle_checks += 1
                want = oracle.query(canvas, color, window=window, assignment=assignment)
                bad = result_mismatch(results[color], want)
                if bad:
                    m.fail(f"slider query {color}: {bad} differs from brute force")


# -- analysts-ingest -------------------------------------------------------------

class Analyst:
    """One analyst thread: steps through the study script, forever.

    Thread 0 also ingests ``INGEST_BATCH`` stream trajectories and rolls
    the service over every ``size.rollover_every`` script iterations.
    """

    INGEST_BATCH = 2

    def __init__(self, idx: int, work: AnalystsIngest, session: Any) -> None:
        self.idx = idx
        self.work = work
        self.session = session
        self.actions = [a for a in default_study_script(ARENA).actions if a.kind != "observe"]
        self.pos = 0
        self.iteration = 0
        self.sample_seed = f"{work.sampling.random()}-{idx}"
        self.reset()

    def reset(self) -> None:
        """Forget everything measured so far (after the warm-up)."""
        self.m = Measured()
        self.samples = Reservoir(self.work.size.hypothesis_samples,
                                 random.Random(self.sample_seed))

    def _act(self, action: Any) -> None:
        s = self.session
        if action.kind == "layout":
            s.switch_layout(action.arg)
        elif action.kind == "group":
            s.enable_fig3_groups()
        else:
            hyp = action.hypothesis
            for stroke in hyp.strokes:
                s.brush(stroke)
            s.set_time_window(hyp.window)
            verdict = s.test_hypothesis(hyp)
            # the epoch's trajectory list, not its dataset: holding old
            # datasets would keep their packed arrays alive and inflate
            # peak_rss_mb by however many epochs the sample spans
            dataset, assignment = s.dataset, s.assignment
            self.samples.offer(lambda: (hyp, list(dataset), assignment, verdict))
            s.erase()
            s.set_time_window(TimeWindow.all())
        service = self.work.service
        if s.epoch != service.active_epoch():
            self.m.stale_ops += 1
            if s.rebind():
                self.m.rebinds += 1

    def _rollover(self, traced: bool) -> None:
        work = self.work
        batch = work.stream[work.fed:work.fed + self.INGEST_BATCH]
        if not batch:
            return
        self.m.attempted += 1
        t0 = time.perf_counter()
        try:
            work.buffer.extend(batch)
            work.coordinator.rollover()
        except Exception:
            self.m.fail(f"rollover: {traceback.format_exc()}")
            return
        work.fed += len(batch)
        if not traced:
            self.m.rollover_s.append(time.perf_counter() - t0)

    def run_until(self, deadline: float, rec: SpanRecorder | None) -> None:
        traced = rec is not None and rec.installed
        m = self.m
        while time.perf_counter() < deadline:
            if self.pos == len(self.actions):
                self.pos = 0
                self.iteration += 1
                if self.idx == 0 and self.iteration % self.work.size.rollover_every == 0:
                    self._rollover(traced)
            action = self.actions[self.pos]
            self.pos += 1
            tick_id = next(self.work.tick_ids)
            m.attempted += 1
            t0 = time.perf_counter()
            try:
                with rec.tick(tick_id) if traced else nullcontext():
                    self._act(action)
            except Exception:
                m.fail(f"{action.kind}: {traceback.format_exc()}")
                continue
            m.completed += 1
            (m.traced_s if traced else m.ticks_s).append(time.perf_counter() - t0)


class AnalystsIngest(Workload):
    """Two analyst threads over one service while thread 0 ingests."""

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        n_stream = Analyst.INGEST_BATCH * max(4, int(np.ceil(self.seconds * 2)))
        stream_seed = int(self.inputs.integers(1, 2**31))
        self.stream = list(generate_study_dataset(
            AntStudyConfig(n_trajectories=n_stream, seed=stream_seed)))
        self.tick_ids = itertools.count()

    def setup(self) -> None:
        self.open_service()
        assert self.service is not None
        self.analysts = [Analyst(i, self, self.open_session()) for i in range(2)]
        self.buffer = IngestBuffer()
        self.coordinator = RolloverCoordinator(self.service, self.buffer)
        self.fed = 0

    def warm(self) -> None:
        for analyst in self.analysts:
            for action in analyst.actions:
                analyst._act(action)
            analyst.reset()

    def measure(self, m: Measured, rec: SpanRecorder | None) -> None:
        t_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(self.analysts)) as pool:
            r = 0
            while r < 2 or time.perf_counter() - t_start < self.seconds:
                traced = rec is not None and r % 2 == 1
                with rec.traced(traced) if rec is not None else nullcontext():
                    deadline = time.perf_counter() + self.size.round_s
                    futures = [pool.submit(a.run_until, deadline, rec) for a in self.analysts]
                    for f in futures:
                        f.result()
                r += 1
        m.loop_s = time.perf_counter() - t_start
        for a in self.analysts:
            for name in ("ticks_s", "traced_s", "rollover_s", "errors"):
                getattr(m, name).extend(getattr(a.m, name))
            for name in ("completed", "attempted", "failed", "stale_ops", "rebinds"):
                setattr(m, name, getattr(m, name) + getattr(a.m, name))
        m.service_s, m.traced_service_s = m.ticks_s, m.traced_s

    def check(self, m: Measured) -> None:
        # epochs only ever append trajectories, so the count names the epoch
        oracles: dict[int, CoordinatedBrushingEngine] = {}
        for analyst in self.analysts:
            for hyp, trajectories, assignment, got in analyst.samples.items:
                m.oracle_checks += 1
                n = len(trajectories)
                if n not in oracles:
                    oracles[n] = CoordinatedBrushingEngine(
                        TrajectoryDataset(trajectories), use_index=False)
                want = hyp.evaluate(oracles[n], assignment)
                bad = verdict_mismatch(got, want)
                if bad:
                    m.fail(f"hypothesis over {n} trajectories: {bad} differs from brute force")
        self._check_rollover_equals_fresh(m)

    def _check_rollover_equals_fresh(self, m: Measured) -> None:
        """The rolled-over epoch answers like a fresh service over the
        same trajectories."""
        assert self.service is not None
        final = self.service.dataset
        fresh = DatasetService(TrajectoryDataset(list(final), name=final.name))
        try:
            a, b = self.service.session(self.vp), fresh.session(self.vp)
            try:
                for s in (a, b):
                    s.switch_layout("3")
                    s.enable_fig3_groups()
                for action in default_study_script(ARENA).actions:
                    if action.kind != "test":
                        continue
                    m.oracle_checks += 1
                    bad = verdict_mismatch(a.test_hypothesis(action.hypothesis),
                                           b.test_hypothesis(action.hypothesis))
                    if bad:
                        m.fail(f"rolled-over epoch {final.epoch}: {bad} differs from fresh")
            finally:
                a.close()
                b.close()
            if fresh.stats()["pins"]:
                m.fail("fresh service kept snapshot pins")
        finally:
            fresh.close()


def verdict_mismatch(got: Any, want: Any) -> str | None:
    for name in ("kind", "support", "comparison_support"):
        if getattr(got, name) != getattr(want, name):
            return name
    return result_mismatch(got.result, want.result)


WORKLOADS: dict[str, type[Workload]] = {
    "brush-frame": BrushFrame,
    "brush-pooled": BrushPooled,
    "slider-scrub": SliderScrub,
    "analysts-ingest": AnalystsIngest,
}


# -- metrics -------------------------------------------------------------------

#: Per-tick ledger metrics: metric name -> span name, reported as the
#: mean self time of that span per traced tick, in ms.
LEDGER_METRICS = {
    "session.overhead_ms": "session.run_query",
    "session.hypothesis_ms": "session.test_hypothesis",
    "session.layout_ms": "session.layout",
    "query.engine_ms": "query.engine",
    "query.plan_ms": "query.plan",
    "query.execute_ms": "query.execute",
    **{f"query.stage.{s}_ms": f"query.stage.{s}" for s in (
        "agg_temporal", "agg_spatial", "agg_brush", "classify", "drilldown",
        "aggregate", "group_support")},
    **{f"{s}_ms": s for s in (
        "render.frame", "render.make_jobs", "render.job", "render.background",
        "render.trajectory", "render.project", "render.splat", "render.highlights",
        "render.footprint", "render.sdf", "render.compose",
        "parallel.dispatch", "parallel.wait", "parallel.assemble")},
}

#: Per-call metrics: metric name -> span name, mean duration per call in
#: ms over the whole traced run (set-up included).
CALL_METRICS = {
    "aggregate.pyramid_build_ms": "aggregate.pyramid_build",
    "index.build_ms": "index.build",
    "store.publish_ms": "store.publish",
}


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ms(values: list[float], q: float) -> float:
    return _pct(values, q) * 1e3


def _mean_ms(seconds: Any) -> float:
    """Mean of an iterable of seconds, in ms; 0 when it is empty."""
    values = list(seconds)
    return sum(values) / len(values) * 1e3 if values else 0.0


def end_to_end(m: Measured) -> dict[str, float]:
    return {
        "setup_s": float(np.median(m.setup_s)),
        "tick_ms.p50": _ms(m.ticks_s, 50),
        "ticks_per_s": m.completed / m.loop_s,
        "peak_rss_mb": m.peak_rss_mb,
    }


def diagnostics(m: Measured) -> dict[str, float]:
    """Workload-specific numbers kept beside the end-to-end metrics."""
    return {
        "tick_ms.p75": _ms(m.ticks_s, 75),
        "tick_ms.p90": _ms(m.ticks_s, 90),
        "miss_frac": m.misses / m.attempted if m.late_s else 0.0,
        "gen_late_ms.max": max(m.late_s, default=0.0) * 1e3,
        "rollover_ms.p50": _ms(m.rollover_s, 50),
        "samples": len(m.ticks_s),
        "rollovers": len(m.rollover_s),
    }


def per_layer(m: Measured, rec: SpanRecorder) -> dict[str, float]:
    spans = rec.spans
    ticked = [sp for sp in spans if sp.tick >= 0]
    n_ticks = max(1, sum(1 for sp in ticked if sp.name == "tick"))

    def named(name: str, pool: list[Any] = ticked) -> list[Any]:
        return [sp for sp in pool if sp.name == name]

    def per_tick(values: Any) -> float:
        return sum(values) / n_ticks

    out: dict[str, float] = {}
    for metric, name in LEDGER_METRICS.items():
        out[metric] = per_tick(sp.self_s for sp in named(name)) * 1e3
    for metric, name in CALL_METRICS.items():
        out[metric] = _mean_ms(sp.duration for sp in named(name, spans))

    frames = named("render.frame")
    out["parallel.worker_render_ms"] = per_tick(
        sp.args.get("worker_render_s", 0.0) for sp in frames) * 1e3
    out["parallel.shipback_ms"] = per_tick(sp.args.get("shipback_s", 0.0) for sp in frames) * 1e3
    out["parallel.batches"] = (sum(sp.args["batches"] for sp in frames) / len(frames)
                               if frames else 0.0)
    out["parallel.degraded_frames"] = float(sum(bool(sp.args["degraded"]) for sp in frames))

    sdf, draws = len(named("render.sdf")), len(named("render.footprint"))
    out["render.footprint.sdf_calls"] = sdf / n_ticks
    out["render.footprint.reuse_ratio"] = 1.0 - sdf / draws if draws else 0.0

    executes = named("query.execute")
    hits = sum(sp.args["hits"] for sp in executes)
    looked = hits + sum(sp.args["misses"] for sp in executes)
    out["query.cache.hit_ratio"] = hits / looked if looked else 0.0
    out["query.drilldown_segments"] = (
        sum(sp.args["drilldown_segments"] for sp in executes) / len(executes)
        if executes else 0.0)

    rollovers = [sp for sp in named("store.rollover", spans) if "stage_s" in sp.args]
    out["store.rollover.stage_ms"] = _mean_ms(sp.args["stage_s"] for sp in rollovers)
    out["store.rollover.swap_ms"] = _mean_ms(sp.args["swap_s"] for sp in rollovers)
    out["store.rebind_ms"] = _mean_ms(
        sp.duration for sp in named("store.rebind", spans) if sp.args.get("moved"))
    out["store.rebinds"] = float(m.rebinds)
    out["store.stale_queries"] = float(m.stale_ops)

    untraced = np.median(m.service_s) if m.service_s else 0.0
    traced = np.median(m.traced_service_s) if m.traced_service_s else 0.0
    out["trace.overhead_ratio"] = float(traced / untraced) if untraced else 0.0
    ledger = tick_ledger(spans)
    out["trace.attributed_frac.min"] = min(
        (1.0 - row["unattributed"] / row["wall"] for row in ledger.values()), default=0.0)

    diag = diagnostics(m)
    for name in ("tick_ms.p75", "tick_ms.p90", "miss_frac", "gen_late_ms.max",
                 "rollover_ms.p50"):
        out[name] = diag[name]
    return out


# -- one run -------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: Size = FULL, out: Path | None = None) -> dict[str, Any]:
    """Run one workload in this process; returns the child result."""
    ds = generate_study_dataset(AntStudyConfig(n_trajectories=size.n_trajectories))
    work = WORKLOADS[name](ds, seed, seconds, size)
    rec = SpanRecorder() if trace else None
    m = Measured()
    try:
        for k in range(size.setup_repeats):
            if k:
                for problem in work.teardown():
                    m.fail(f"set-up {k}: {problem}")
            with rec.traced() if rec is not None else nullcontext():
                t0 = time.perf_counter()
                work.setup()
                m.setup_s.append(time.perf_counter() - t0)
        work.warm()
        work.measure(m, rec)
        m.peak_rss_mb = peak_rss_mb()
        work.check(m)
    finally:
        if rec is not None:
            rec.restore()
        for problem in work.teardown():
            m.fail(problem)

    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": m.attempted,
        "failed": m.failed,
        "oracle_checks": m.oracle_checks,
        "errors": m.errors,
        "end_to_end": end_to_end(m),
        "diagnostics": diagnostics(m),
    }
    if rec is not None:
        result["per_layer"] = per_layer(m, rec)
        ledger = tick_ledger(rec.spans)
        print(f"per-tick ledger, {name}: {len(ledger)} traced ticks")
        for line in format_ledger(ledger):
            print("  " + line)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
            stem = f"{name}-s{seed}-{int(time.time() * 1000)}"
            rec.write_jsonl(out / f"{stem}.spans.jsonl")
            rec.write_chrome(out / f"{stem}.chrome.json")
            print(f"  spans: {out / stem}.spans.jsonl, {out / stem}.chrome.json")
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Run one interaction workload (run.py calls this).")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          SMOKE if args.smoke else FULL, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
