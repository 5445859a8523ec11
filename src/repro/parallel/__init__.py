"""Parallel tile rendering.

On the real wall each tile is driven by its own render node, which
keeps its data resident.  The software reproduction mirrors that with
tile owners (:mod:`repro.parallel.tilerender`): worker processes that
live across frames, each rendering the same (tile, eye) jobs every
frame and keeping their base layers, so a frame ships each owner only
its jobs, the brush and the query results, and ships back only its
tiles' pixels.  Tiles share nothing, so the decomposition is
embarrassing; the interesting part is paying worker startup once and
shipping only what a tile needs.  The owners are the workers of a
:class:`repro.resilience.SupervisedPool`, the repository's one process
pool.
"""

from repro.parallel.tilerender import render_viewport_parallel

__all__ = ["render_viewport_parallel"]
