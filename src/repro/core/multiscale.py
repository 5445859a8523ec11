"""Multi-scale visual queries (§VI-C).

"Coordinated brushing can still be employed to explore those clusters
in a similar manner ... a user can interactively 'zoom in' on a
particular cluster of interest and query the cluster at the
individual-trajectory level, enabling one to explore the dataset at
multiple scales."

A :class:`MultiscaleExplorer` holds a :class:`~repro.cluster.model.
ClusterModel` and two query engines: one over the cluster-average
dataset (the overview level) and, lazily per cluster, one over each
cluster's member trajectories (the zoomed level).  Both levels answer
the same :class:`~repro.core.canvas.BrushCanvas`, so a brush painted at
the overview carries down unchanged into the zoom.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.model import ClusterModel
from repro.core.canvas import BrushCanvas
from repro.core.engine import CoordinatedBrushingEngine
from repro.core.result import QueryResult
from repro.core.temporal import TimeWindow

__all__ = ["MultiscaleExplorer"]


class MultiscaleExplorer:
    """Two-level (overview / zoom) coordinated brushing.

    Parameters
    ----------
    model:
        A fitted cluster model.
    use_index:
        Whether the per-level engines build summary pyramids.
    """

    def __init__(self, model: ClusterModel, *, use_index: bool = True) -> None:
        if len(model.averages) == 0:
            raise ValueError("cluster model has no non-empty clusters")
        self.model = model
        self.use_index = use_index
        self.overview_engine = CoordinatedBrushingEngine(
            model.averages, use_index=use_index
        )
        self._zoom_engines: dict[int, CoordinatedBrushingEngine] = {}

    # Overview level --------------------------------------------------------
    def query_overview(
        self,
        canvas: BrushCanvas,
        color: str = "red",
        *,
        window: TimeWindow | None = None,
    ) -> QueryResult:
        """Brush the cluster averages (one cell per cluster)."""
        return self.overview_engine.query(canvas, color, window=window)

    def interesting_clusters(
        self,
        canvas: BrushCanvas,
        color: str = "red",
        *,
        window: TimeWindow | None = None,
    ) -> np.ndarray:
        """Cluster indices whose *average* the brush highlights —
        the candidates the researcher would zoom into."""
        result = self.query_overview(canvas, color, window=window)
        hit_rows = result.highlighted_indices()
        # averages' traj_id is the cluster index
        return np.asarray(
            sorted(self.model.averages[int(r)].traj_id for r in hit_rows), dtype=np.int64
        )

    # Zoom level ----------------------------------------------------------------
    def zoom_engine(self, cluster: int) -> CoordinatedBrushingEngine:
        """The (cached) engine over one cluster's member trajectories."""
        if cluster not in self._zoom_engines:
            members = self.model.member_dataset(cluster)
            if len(members) == 0:
                raise ValueError(f"cluster {cluster} is empty")
            self._zoom_engines[cluster] = CoordinatedBrushingEngine(
                members, use_index=self.use_index
            )
        return self._zoom_engines[cluster]

    def query_cluster(
        self,
        cluster: int,
        canvas: BrushCanvas,
        color: str = "red",
        *,
        window: TimeWindow | None = None,
    ) -> QueryResult:
        """Brush inside one zoomed cluster, individual-trajectory level."""
        return self.zoom_engine(cluster).query(canvas, color, window=window)

    # Two-level pipeline ----------------------------------------------------------
    def drill_down(
        self,
        canvas: BrushCanvas,
        color: str = "red",
        *,
        window: TimeWindow | None = None,
        max_clusters: int | None = None,
    ) -> dict[int, QueryResult]:
        """Overview query, then zoom into every highlighted cluster.

        Returns per-cluster individual-level results.  ``max_clusters``
        caps the drill-down breadth (the researcher zooms a few, not
        all); the cap is applied in descending cluster-size order so
        the most data-rich candidates come first.
        """
        clusters = self.interesting_clusters(canvas, color, window=window)
        if max_clusters is not None and len(clusters) > max_clusters:
            sizes = self.model.cluster_sizes()[clusters]
            clusters = clusters[np.argsort(sizes)[::-1][:max_clusters]]
        return {
            int(c): self.query_cluster(int(c), canvas, color, window=window)
            for c in clusters
        }

    def support_estimate_error(
        self,
        canvas: BrushCanvas,
        color: str = "red",
        *,
        window: TimeWindow | None = None,
        exact_engine: CoordinatedBrushingEngine | None = None,
    ) -> dict[str, float]:
        """How faithful is the cluster-level reading vs. the full data?

        Compares the member-weighted support implied by the overview
        highlighting against the exact support measured on the full
        dataset.  E9 reports this fidelity/granularity trade-off.
        """
        overview = self.query_overview(canvas, color, window=window)
        sizes = self.model.cluster_sizes()
        weighted_hits = 0
        total = int(sizes.sum())
        for row in range(len(self.model.averages)):
            cluster = self.model.averages[row].traj_id
            if overview.traj_mask[row]:
                weighted_hits += int(sizes[cluster])
        cluster_support = weighted_hits / max(1, total)
        engine = exact_engine or CoordinatedBrushingEngine(
            self.model.source, use_index=self.use_index
        )
        exact = engine.query(canvas, color, window=window)
        return {
            "cluster_level_support": cluster_support,
            "exact_support": exact.overall_support,
            "abs_error": abs(cluster_support - exact.overall_support),
        }
