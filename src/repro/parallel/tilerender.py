"""Process-parallel tile rendering on tile owners.

Each (tile, eye) render job is independent, so the frame parallelizes
across processes.  As on the paper's cluster-driven wall, where each
render node drives its own panels and keeps its data resident, the
pooled path runs on **tile owners**: worker processes that live across
frames, each always rendering the same (tile, eye) jobs — owner ``i``
gets the ``i``-th share of a round-robin deal of the frame's job list.
An owner renders through its own :class:`WallRenderer`, so it keeps its
tiles' base layers and footprint coverage from one frame to the next: a
brush tick redraws only the overlay, in every owner at once.

An owner receives the renderer's dataset once, when it starts: pickled
(inherited under fork), or with ``store=`` as a zero-copy attach of the
published :class:`repro.store.StoreHandle`.  An unattachable handle
degrades to the pickled dataset, with a ``shm-attach-failure`` event on
every frame those owners render.  Per frame an owner receives only its
jobs, the brush canvas, the query results and the renderer's current
projection and style, and returns only its tiles' pixels through its
pipe (pickle ship-back), with its render seconds and the monotonic time
at which it finished, so ship-back is measured, not estimated.

Owners start on a renderer's first pooled frame and are replaced when
anything they were built from changes: the renderer's dataset (by
identity and epoch, so an append or a rollover rebinds them), the store
handle, the arena, the viewport or ``max_workers``.  They stop when the
renderer is garbage-collected, when they are replaced, and at
interpreter exit.  They live in this module, keyed weakly by renderer,
never in the renderer itself.

Jobs are **batched per owner** (one request per owner carrying its
tile list): a batch amortizes dispatch and shares the renderer's
overlay layers across the owner's tiles.

Every path renders its job list through
:meth:`WallRenderer.render_jobs`: ``max_workers<=1`` renders the whole
frame in-process as one list and is bit-identical to
:meth:`WallRenderer.render_viewport`.

The pooled path runs under a :class:`repro.resilience.SupervisedPool`:
a crashed, hung or misbehaving owner never costs the frame.  Its failed
batch is retried on the respawned owner (which renders it cold: its
retained layers died with it) and, as a last resort, re-rendered
serially in the parent — rendering is deterministic, so every rung
returns identical bytes and the frame always completes.  What failed
and what it took to recover is attached as
``ParallelRenderReport.degradation``.  Fault injection for tests and
benchmarks comes in through ``fault_plan`` or the ``REPRO_FAULTS``
environment hook; fault job ``b`` is owner ``b``'s batch.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro import obs
from repro.core.canvas import BrushCanvas
from repro.core.result import QueryResult
from repro.display.viewport import Viewport
from repro.layout.cells import CellAssignment
from repro.parallel.pool import round_robin_batches
from repro.render.framebuffer import Framebuffer
from repro.render.pipeline import RenderJob, WallRenderer
from repro.render.raster import CellStyle
from repro.resilience.faults import FaultPlan
from repro.resilience.health import DegradationReport
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy
from repro.resilience.supervisor import SupervisedPool
from repro.stereo.camera import Eye
from repro.stereo.projection import SpaceTimeProjection
from repro.store.arena import SharedArenaStore, StoreHandle, attach
from repro.store.shm import StoreAttachError
from repro.synth.arena import Arena
from repro.trajectory.dataset import TrajectoryDataset

__all__ = ["render_viewport_parallel", "ParallelRenderReport", "owner_pids"]

# An owner process's state, installed by its initializer: its renderer
# and the store client pinning its mapping.
_OWNER_STATE: dict[str, Any] = {}

#: One request to a tile owner: its jobs, which it renders as one list
#: (so they share its overlay layers, see
#: :meth:`~repro.render.pipeline.WallRenderer.render_jobs`), and what
#: they need besides, sent with them every frame.
_FrameWork = tuple[
    tuple[RenderJob, ...], BrushCanvas | None, dict[str, QueryResult] | None,
    SpaceTimeProjection, CellStyle,
]


@dataclass(frozen=True)
class _BatchOut:
    """A rendered batch: each job's pixels and render seconds, the
    number of base layers it had to build, and when its owner finished
    (``time.monotonic``).  ``arrived`` is stamped in the parent as the
    output is unpickled, so ``arrived - finished`` is its ship-back;
    it is None for a batch rendered in the parent."""

    tiles: list[tuple[Framebuffer, float]]
    bases_built: int
    finished: float
    arrived: float | None = None

    def __reduce__(self) -> tuple[Any, ...]:
        return (_arrived, (self.tiles, self.bases_built, self.finished))


def _arrived(tiles: list[tuple[Framebuffer, float]], bases_built: int,
             finished: float) -> _BatchOut:
    """Unpickle a batch's output, stamping when its pixels arrived."""
    return _BatchOut(tiles, bases_built, finished, time.monotonic())


def _init_owner(source: TrajectoryDataset | StoreHandle, arena: Arena,
                viewport: Viewport) -> None:
    """Owner initializer: attach the shared store (or take the pickled
    dataset) and build the owner's renderer.

    An attach failure raises, killing the owner — the supervisor still
    completes the frame (the parent probes the handle first, so this is
    a race, not the expected path).
    """
    if isinstance(source, StoreHandle):
        client = attach(source)
        _OWNER_STATE["client"] = client  # pins the mapping for the owner's life
        source = client.dataset
    _OWNER_STATE["renderer"] = WallRenderer(source, arena, viewport)


def _render_on(renderer: WallRenderer, work: _FrameWork) -> _BatchOut:
    jobs, canvas, results, projection, style = work
    renderer.projection, renderer.style = projection, style
    built = renderer.bases_built
    tiles = renderer.render_jobs(jobs, canvas=canvas, results=results)
    return _BatchOut(tiles, renderer.bases_built - built, time.monotonic())


def _render_batch(work: _FrameWork) -> _BatchOut:
    """Render one batch in its owner, on the owner's renderer."""
    return _render_on(_OWNER_STATE["renderer"], work)


class _OwnerKey(NamedTuple):
    """What a renderer's owners were built from; any change replaces
    them.  The dataset compares by identity (it defines no equality)."""

    dataset: TrajectoryDataset
    epoch: int
    handle: StoreHandle | None
    arena: Arena
    viewport: Viewport
    workers: int


@dataclass
class _Owners:
    key: _OwnerKey
    pool: SupervisedPool
    stop: weakref.finalize
    attach_failure: str  # why the store handle was not used ("" when it was)


#: Each renderer's tile owners.  Weak keys: the owners stop when their
#: renderer is collected, and nothing here keeps a renderer alive.
_OWNERS: weakref.WeakKeyDictionary[WallRenderer, _Owners] = weakref.WeakKeyDictionary()


def _owners_for(renderer: WallRenderer, handle: StoreHandle | None, workers: int) -> _Owners:
    """``renderer``'s owners for this frame, replacing stale ones."""
    key = _OwnerKey(renderer.dataset, renderer.dataset.epoch, handle,
                    renderer.arena, renderer.viewport, workers)
    owners = _OWNERS.get(renderer)
    if owners is not None and owners.key == key:
        return owners
    if owners is not None:
        owners.stop()
    source: TrajectoryDataset | StoreHandle = renderer.dataset
    failure = ""
    if handle is not None:
        try:
            attach(handle).close()  # parent-side probe: fail fast and cheap
        except StoreAttachError as exc:
            failure = repr(exc)
        else:
            source = handle
    pool = SupervisedPool(
        workers, initializer=_init_owner,
        initargs=(source, renderer.arena, renderer.viewport),
    )
    # the finalizer also runs at interpreter exit
    owners = _Owners(key, pool, weakref.finalize(renderer, pool.close), failure)
    _OWNERS[renderer] = owners
    return owners


def owner_pids(renderer: WallRenderer) -> tuple[int | None, ...]:
    """Process ids of ``renderer``'s running tile owners, by owner
    (empty before its first pooled frame)."""
    owners = _OWNERS.get(renderer)
    return owners.pool.pids if owners is not None else ()


def _covered_s(spans: list[tuple[float, float]]) -> float:
    """Seconds covered by the union of ``(start, end)`` spans."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(spans):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


@dataclass(frozen=True)
class ParallelRenderReport:
    """Frames plus timing and health of a parallel render pass.

    ``stage_seconds`` splits ``elapsed_s`` for the pooled path:
    ``dispatch`` (finding or replacing the renderer's owners),
    ``render`` (summed in-owner render time across all jobs),
    ``shipback`` (the part of the wait in which some finished batch was
    still on its way back: the union of each batch's span from its
    owner's finish to its arrival in the parent) and ``assemble``
    (filing the shipped framebuffers into the frame).  The serial path
    reports only ``render``.  ``bases_built`` counts the base layers the
    frame had to draw: 0 on a tick that changed only the overlay.
    """

    frames: dict[Eye, dict[tuple[int, int], Framebuffer]]
    elapsed_s: float
    n_jobs: int
    workers: int
    degradation: DegradationReport = field(default_factory=DegradationReport)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    n_batches: int = 0
    bases_built: int = 0

    @property
    def degraded(self) -> bool:
        """True when any job needed a retry or fallback."""
        return self.degradation.degraded


def render_viewport_parallel(
    renderer: WallRenderer,
    assignment: CellAssignment,
    *,
    eyes: tuple[Eye, ...] = (Eye.LEFT, Eye.RIGHT),
    canvas: BrushCanvas | None = None,
    results: dict[str, QueryResult] | None = None,
    max_workers: int = 0,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    store: "SharedArenaStore | StoreHandle | None" = None,
) -> ParallelRenderReport:
    """Render all viewport tiles, in-process or on the renderer's tile
    owners.

    Returns the same ``{eye: {(col, row): Framebuffer}}`` structure as
    the serial path, wrapped with timing for benchmark E11 and a
    :class:`DegradationReport` accounting for any owner failures the
    render absorbed.

    Parameters
    ----------
    canvas / results:
        The brush canvas (footprints) and each color's finished
        :class:`QueryResult` (highlights), as the serial renderer takes
        them; owners receive both with every frame.
    max_workers:
        Number of tile owners; ``<= 1`` renders in-process.
    fault_plan:
        Deterministic fault injection for the owners (tests, benchmark
        R1).  Defaults to the ``REPRO_FAULTS`` environment hook; pass an
        empty plan to override the environment.  Fault job ``b`` is
        owner ``b``'s batch.
    retry_policy:
        Per-batch retry/backoff/timeout policy for the supervisor.
    store:
        A published :class:`~repro.store.SharedArenaStore` (or its
        :class:`~repro.store.StoreHandle`) for the renderer's dataset.
        Owners then attach zero-copy views instead of receiving a
        pickled dataset; an unattachable handle degrades to the pickled
        dataset with a ``shm-attach-failure`` event on the report.
    """
    jobs = renderer.make_jobs(assignment, eyes)
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    degradation = DegradationReport()
    t0 = time.perf_counter()
    frames: dict[Eye, dict[tuple[int, int], Framebuffer]] = {eye: {} for eye in eyes}
    stage_seconds: dict[str, float] = {}
    n_batches = 0
    if max_workers <= 1:
        built = renderer.bases_built
        for job, (fb, job_s) in zip(
            jobs, renderer.render_jobs(jobs, canvas=canvas, results=results), strict=True
        ):
            obs.observe("render.tile.seconds", job_s)
            frames[job.eye][(job.tile.col, job.tile.row)] = fb
        bases_built = renderer.bases_built - built
        workers = 1
        stage_seconds["render"] = time.perf_counter() - t0
    else:
        # share b goes to owner b: the pool runs item i on worker i % max_workers
        shares = round_robin_batches(jobs, max_workers)
        n_batches = len(shares)
        handle = store.handle if isinstance(store, SharedArenaStore) else store
        owners = _owners_for(renderer, handle, max_workers)
        if owners.attach_failure:
            degradation.record(
                "shm-attach-failure", scope="pool", action="pickle-fallback",
                detail=owners.attach_failure,
            )
            obs.counter_add("render.transport.fallbacks", 1)
        work: list[_FrameWork] = [
            (share, canvas, results, renderer.projection, renderer.style)
            for share in shares
        ]
        pool = owners.pool
        pool.policy = retry_policy or DEFAULT_POLICY
        pool.fault_plan, pool.report = fault_plan, degradation
        dispatch_s = time.perf_counter() - t0
        t_map, t_map_mono = time.perf_counter(), time.monotonic()
        outputs = pool.map(
            _render_batch, work, serial_fn=lambda w: _render_on(renderer, w),
        )
        t_map_end = time.monotonic()
        map_s = time.perf_counter() - t_map
        t_assemble = time.perf_counter()
        render_s = 0.0
        bases_built = 0
        in_transit: list[tuple[float, float]] = []
        for share, out in zip(shares, outputs, strict=True):
            bases_built += out.bases_built
            if out.arrived is not None:
                in_transit.append((max(out.finished, t_map_mono), min(out.arrived, t_map_end)))
            for job, (fb, job_s) in zip(share, out.tiles, strict=True):
                render_s += job_s
                obs.observe("render.tile.seconds", job_s)
                frames[job.eye][(job.tile.col, job.tile.row)] = fb
        assemble_s = time.perf_counter() - t_assemble
        workers = max_workers
        stage_seconds = {
            "dispatch": dispatch_s,
            "render": render_s,
            "shipback": min(_covered_s(in_transit), map_s),
            "assemble": assemble_s,
        }
        obs.counter_add("render.batches", n_batches, workers=workers)
    elapsed = time.perf_counter() - t0
    for stage, seconds in stage_seconds.items():
        obs.observe("render.frame.stage_seconds", seconds, stage=stage)
    obs.observe("render.frame.seconds", elapsed, workers=workers)
    obs.counter_add("render.jobs", len(jobs), workers=workers)
    return ParallelRenderReport(
        frames=frames,
        elapsed_s=elapsed,
        n_jobs=len(jobs),
        workers=workers,
        degradation=degradation,
        stage_seconds={k: round(v, 6) for k, v in stage_seconds.items()},
        n_batches=n_batches,
        bases_built=bases_built,
    )
