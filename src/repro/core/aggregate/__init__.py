"""Aggregate-first query planning (§VI-C scalability, Dataopsy direction).

The brute-force query plan scans every packed segment on a cold stage.
This package answers the same queries from a precomputed **summary
pyramid** instead: per grid-cell × time-bucket *supernodes* carrying
sufficient statistics (segment counts, bounding boxes, temporal
extents, per-trajectory bitsets, per-level spatial coarsening).  A
query tri-states each supernode as all-in / all-out / inconclusive and
drills down to raw segments only where the aggregate cannot decide —
the classification is deliberately conservative (epsilon margins route
every boundary case to the exact per-segment kernels), which is what
makes aggregate-first results **bit-identical** to the brute-force plan.

Layout:

* :mod:`~repro.core.aggregate.pyramid` — :class:`SummaryPyramid`
  (build / zero-copy adoption of shared-arena tables).
* :mod:`~repro.core.aggregate.kernels` — tri-state classification and
  the vectorized drill-down kernels.
"""

from repro.core.aggregate.kernels import (
    IN,
    MAYBE,
    OUT,
    brush_hit_cells,
    classify_spatial,
    classify_temporal,
    refine_temporal_rows,
)
from repro.core.aggregate.pyramid import SummaryPyramid

__all__ = [
    "SummaryPyramid",
    "OUT",
    "MAYBE",
    "IN",
    "classify_temporal",
    "classify_spatial",
    "brush_hit_cells",
    "refine_temporal_rows",
]
