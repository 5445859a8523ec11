"""Parallel execution harness.

On the real wall each tile is driven by its own render node, which
keeps its data resident.  The software reproduction mirrors that with
tile owners (:mod:`repro.parallel.tilerender`): worker processes that
live across frames, each rendering the same (tile, eye) jobs every
frame and keeping their base layers, so a frame ships each owner only
its jobs, the brush and the query results, and ships back only its
tiles' pixels.  Tiles share nothing, so the decomposition is
embarrassing; the interesting part is paying worker startup once and
shipping only what a tile needs.  A process pool runs chunked batch
queries for the §VI-C large-dataset workloads.
"""

from repro.parallel.partition import chunk_indices, partition_jobs_by_cost
from repro.parallel.pool import WorkerPool, pool_map
from repro.parallel.tilerender import render_viewport_parallel
from repro.parallel.batch import parallel_query_support

__all__ = [
    "chunk_indices",
    "partition_jobs_by_cost",
    "WorkerPool",
    "pool_map",
    "render_viewport_parallel",
    "parallel_query_support",
]
