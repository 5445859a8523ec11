"""Span recorder for the interaction benchmark's traced runs.

The recorder measures the program from outside.  :meth:`SpanRecorder.install`
replaces a fixed list of public entry points (:data:`WRAPPED`) with
wrappers that record one span per call, and :meth:`SpanRecorder.restore`
puts every original attribute back.  Nothing is patched at import time
or in an untraced run.  A span has a name, a start, an end, a parent
and the id of the tick it ran in.  Spans are kept in memory and
written out once the run ends, as JSONL and as Chrome trace-event
JSON (``chrome://tracing`` or https://ui.perfetto.dev open it).

A layer's *self time* is its span's duration minus the durations of
its direct children.  The self times of every span in a tick,
including the tick span itself, add up to the tick's wall time.  The
tick span's own self time is the part no wrapper covers: the
benchmark's glue, which the ledger reports as ``unattributed``.

Two layers are reported by the program rather than timed here, so
they enter the tree as *synthetic* children.  Query stages come from
the ``QueryTrace`` that ``QueryExecutor.run`` fills.  Pool phases
(dispatch, waiting on workers, assembly) come from the
``ParallelRenderReport`` of ``render_viewport_parallel``.  Both sources
report durations only, so their children are laid end to end inside
the parent span.

Pool workers do not record spans.  They are forked with the wrappers
in place, but each wrapper checks the process id and calls straight
through outside the recording process.  The worker-side render time
is taken from the report instead (``worker_render_s`` on the
``render.frame`` span).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["Span", "SpanRecorder", "WRAPPED", "tick_ledger", "format_ledger"]

_REFINED = re.compile(r"refined (\d+) segments")


@dataclass(eq=False)
class Span:
    """One timed call (or one program-reported phase) on one thread."""

    name: str
    start: float
    end: float = 0.0
    parent: Span | None = None
    tick: int = -1
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)
    child_s: float = 0.0
    synthetic: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# -- hooks: read what the program reports about a finished call ---------------

def _on_execute(rec: SpanRecorder, sp: Span, bound: dict[str, Any], result: Any) -> None:
    """Lay the executor's per-stage records out as children of its span."""
    trace = bound["trace"]
    cursor = sp.start
    refined = 0
    for record in trace.stages:
        rec.add_child(sp, f"query.stage.{record.stage}", cursor, record.elapsed_s,
                      cache_hit=record.cache_hit)
        cursor += record.elapsed_s
        if record.stage == "agg_brush" and not record.cache_hit:
            m = _REFINED.search(record.detail)
            refined += int(m.group(1)) if m else 0
    sp.args.update(hits=trace.cache_hits, misses=trace.cache_misses,
                   drilldown_segments=refined)


def _on_run_query(rec: SpanRecorder, sp: Span, bound: dict[str, Any], result: Any) -> None:
    events = result.degradation.events if result.degradation is not None else ()
    sp.args["stale"] = any(e.kind == "stale-epoch" for e in events)


def _on_frame(rec: SpanRecorder, sp: Span, bound: dict[str, Any], report: Any) -> None:
    """Split the parent-side wall of a pooled frame into pool phases."""
    stages = report.stage_seconds
    sp.args.update(batches=report.n_batches, degraded=report.degraded,
                   workers=report.workers)
    if "dispatch" not in stages:  # serial path: the work is in render.job spans
        return
    wait = report.elapsed_s - stages["dispatch"] - stages["assemble"]
    cursor = sp.end - report.elapsed_s
    for name, seconds in (("parallel.dispatch", stages["dispatch"]),
                          ("parallel.wait", wait),
                          ("parallel.assemble", stages["assemble"])):
        rec.add_child(sp, name, cursor, seconds)
        cursor += seconds
    sp.args.update(worker_render_s=stages["render"], shipback_s=stages["shipback"])


def _on_rollover(rec: SpanRecorder, sp: Span, bound: dict[str, Any], result: Any) -> None:
    if result is not None:
        sp.args.update(stage_s=result.stage_seconds, swap_s=result.swap_seconds)


def _on_rebind(rec: SpanRecorder, sp: Span, bound: dict[str, Any], moved: Any) -> None:
    sp.args["moved"] = bool(moved)


#: (module, attribute path, span name, hook) of every wrapped entry point.
#: Attribute paths name the class that *defines* the attribute, so that
#: patching and restoring touch exactly one ``__dict__`` entry.
WRAPPED: tuple[tuple[str, str, str, Callable[..., None] | None], ...] = (
    ("repro.store.service", "SessionView.run_query", "session.run_query", _on_run_query),
    ("repro.store.service", "SessionView.rebind", "store.rebind", _on_rebind),
    ("repro.core.session", "ExplorationSession.test_hypothesis",
     "session.test_hypothesis", None),
    ("repro.core.session", "ExplorationSession.switch_layout", "session.layout", None),
    ("repro.core.session", "ExplorationSession.enable_fig3_groups", "session.layout", None),
    ("repro.interaction.sliders", "IncrementalRequery.requery", "session.requery", None),
    ("repro.core.engine", "CoordinatedBrushingEngine.query", "query.engine", None),
    ("repro.core.plan.planner", "QueryPlanner.plan", "query.plan", None),
    ("repro.core.plan.executor", "QueryExecutor.run", "query.execute", _on_execute),
    ("repro.parallel.tilerender", "render_viewport_parallel", "render.frame", _on_frame),
    ("repro.render.pipeline", "WallRenderer.make_jobs", "render.make_jobs", None),
    ("repro.render.pipeline", "WallRenderer.render_job", "render.job", None),
    ("repro.render.raster", "CellRenderer.draw_background", "render.background", None),
    ("repro.render.raster", "CellRenderer.draw_arena_rim", "render.background", None),
    ("repro.render.raster", "CellRenderer.draw_trajectory", "render.trajectory", None),
    ("repro.render.raster", "CellRenderer.draw_highlights", "render.highlights", None),
    ("repro.render.raster", "CellRenderer.draw_brush_footprint", "render.footprint", None),
    ("repro.render.raster", "CellRenderer.brush_footprint_coverage", "render.sdf", None),
    ("repro.render.raster", "splat_polylines", "render.splat", None),
    ("repro.stereo.projection", "SpaceTimeProjection.project", "render.project", None),
    ("repro.render.compose", "compose_wall", "render.compose", None),
    ("repro.store.arena", "SharedArenaStore.publish", "store.publish", None),
    ("repro.store.ingest", "RolloverCoordinator.rollover", "store.rollover", _on_rollover),
    ("repro.core.aggregate.pyramid", "SummaryPyramid.build", "aggregate.pyramid_build", None),
    ("repro.core.spatial_index", "UniformGridIndex.__init__", "index.build", None),
)


class SpanRecorder:
    """In-memory span recorder with install/restore of the wrappers.

    Use as a context manager for one traced region, or call
    :meth:`install` / :meth:`restore` around each traced tick.  Every
    patch is undone by :meth:`restore`, also when the traced code
    raised.  Thread-safe for recording; install and restore must not
    race with calls into the wrapped code.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self.t0 = time.perf_counter()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._prepared: list[tuple[Any, str, Any, Any]] | None = None

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, tick: int | None = None) -> Iterator[Span]:
        """Record one span around the ``with`` body on this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tick is None:
            tick = parent.tick if parent is not None else -1
        sp = Span(name, time.perf_counter(), parent=parent, tick=tick,
                  tid=threading.get_ident())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += sp.duration
            self.spans.append(sp)

    def tick(self, tick_id: int) -> Any:
        """The root span of one tick; spans opened inside inherit its id."""
        return self.span("tick", tick=tick_id)

    def add_child(self, parent: Span, name: str, start: float, seconds: float,
                  **args: Any) -> None:
        """Attach a program-reported phase of known duration to ``parent``."""
        sp = Span(name, start, start + seconds, parent=parent, tick=parent.tick,
                  tid=parent.tid, args=args, synthetic=True)
        parent.child_s += seconds
        self.spans.append(sp)

    # -- patching ----------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], name: str,
              hook: Callable[..., None] | None) -> Callable[..., Any]:
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != self.pid:  # forked pool worker: not recorded
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if hook is not None:
                assert signature is not None
                hook(self, sp, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _prepare(self) -> list[tuple[Any, str, Any, Any]]:
        """(owner, attribute, original, wrapper) of every entry point,
        built once so that installing per tick is only ``setattr``."""
        if self._prepared is None:
            prepared = []
            for module_name, path, name, hook in WRAPPED:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    patched: Any = classmethod(self._wrap(original.__func__, name, hook))
                else:
                    patched = self._wrap(original, name, hook)
                prepared.append((owner, attr, original, patched))
            self._prepared = prepared
        return self._prepared

    def install(self) -> None:
        """Patch every entry point in :data:`WRAPPED` (idempotent)."""
        if self._patches:
            return
        try:
            for owner, attr, original, patched in self._prepare():
                setattr(owner, attr, patched)
                self._patches.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    @contextmanager
    def traced(self, on: bool = True) -> Iterator[None]:
        """Install the wrappers for the ``with`` body when ``on``."""
        if not on:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.restore()

    # -- export ------------------------------------------------------------
    def _ids(self) -> dict[int, int]:
        return {id(sp): i for i, sp in enumerate(self.spans)}

    def _record(self, sp: Span, ids: dict[int, int]) -> dict[str, Any]:
        return {
            "id": ids[id(sp)],
            "name": sp.name,
            "start_s": sp.start - self.t0,
            "end_s": sp.end - self.t0,
            "self_s": sp.self_s,
            "parent": ids[id(sp.parent)] if sp.parent is not None else None,
            "tick": sp.tick,
            "tid": sp.tid,
            "synthetic": sp.synthetic,
            "args": sp.args,
        }

    def write_jsonl(self, path: Path) -> None:
        ids = self._ids()
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(self._record(sp, ids)) + "\n")

    def write_chrome(self, path: Path) -> None:
        ids = self._ids()
        events = []
        for sp in self.spans:
            rec = self._record(sp, ids)
            events.append({
                "name": sp.name,
                "cat": sp.name.split(".")[0],
                "ph": "X",
                "ts": rec["start_s"] * 1e6,
                "dur": sp.duration * 1e6,
                "pid": self.pid,
                "tid": sp.tid,
                "args": {"tick": sp.tick, "id": rec["id"], "parent": rec["parent"],
                         "self_ms": sp.self_s * 1e3, **sp.args},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def tick_ledger(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per tick: ``wall`` plus the summed self seconds of every layer.

    The tick span's own self time appears as ``unattributed``; the
    values of one tick other than ``wall`` add up to ``wall``.
    """
    ledger: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        if sp.tick < 0:
            continue
        row = ledger[sp.tick]
        if sp.name == "tick":
            row["wall"] += sp.duration
            row["unattributed"] += sp.self_s
        else:
            row[sp.name] += sp.self_s
    return {tick: dict(row) for tick, row in ledger.items()}


def format_ledger(ledger: dict[int, dict[str, float]], max_ticks: int = 6) -> list[str]:
    """The ledger as text: one row per layer, one column per shown tick
    (evenly sampled) and a final column with the mean over all ticks."""
    if not ledger:
        return ["(no traced ticks)"]
    ticks = sorted(ledger)
    step = max(1, -(-len(ticks) // max_ticks))
    shown = ticks[::step][:max_ticks]
    layers = sorted({name for row in ledger.values() for name in row} - {"wall"})
    layers.sort(key=lambda n: -sum(row.get(n, 0.0) for row in ledger.values()))
    width = max(len(n) for n in [*layers, "layer (self ms)"])
    head = f"{'layer (self ms)':<{width}} " + " ".join(f"{'t' + str(t):>9}" for t in shown)
    lines = [head + f" {'mean':>9}"]

    def row(name: str) -> str:
        vals = [ledger[t].get(name, 0.0) * 1e3 for t in shown]
        mean = sum(r.get(name, 0.0) for r in ledger.values()) * 1e3 / len(ledger)
        return (f"{name:<{width}} " + " ".join(f"{v:9.3f}" for v in vals)
                + f" {mean:9.3f}")

    lines.extend(row(name) for name in layers)
    lines.append(row("wall"))
    return lines
