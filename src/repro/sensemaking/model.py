"""Pirolli & Card's sensemaking model (Fig. 2), as adapted by the paper.

The model is a directed stage graph: raw data flows up through the
*information foraging loop* (filter -> visualize -> extract features ->
search for patterns) into the *sensemaking loop* (schematize -> build
case -> tell story), with back edges everywhere ("the process is highly
fluid and iterative").  The coding analysis of §V maps user actions
onto these stages; :class:`SensemakingModel` provides the graph, stage
metadata, and transition validation used by the coding layer.
"""

from __future__ import annotations

import enum

import networkx as nx

__all__ = ["Stage", "SensemakingModel"]


class Stage(enum.Enum):
    """Stages of the adapted Pirolli-Card model (Fig. 2).

    Box letters follow the paper's discussion: the visual
    representations are Box B, the evidence file Box C.
    """

    RAW_DATA = "raw data"
    FILTERED_DATA = "filtered data"          # Box A: relevant subsets
    VISUAL_REPRESENTATION = "visualization"  # Box B
    EVIDENCE_FILE = "evidence file"          # Box C
    SCHEMA = "schema"                        # Box D
    HYPOTHESES = "hypotheses"                # Box E
    PRESENTATION = "presentation"            # Box F

    @property
    def loop(self) -> str:
        """Which loop the stage belongs to."""
        if self in (
            Stage.RAW_DATA,
            Stage.FILTERED_DATA,
            Stage.VISUAL_REPRESENTATION,
            Stage.EVIDENCE_FILE,
        ):
            return "foraging"
        return "sensemaking"


#: Forward transitions (stage -> next stage) of Fig. 2's main flow.
_FORWARD = [
    (Stage.RAW_DATA, Stage.FILTERED_DATA),          # 1. filter & select
    (Stage.FILTERED_DATA, Stage.VISUAL_REPRESENTATION),  # 2. visualize
    (Stage.VISUAL_REPRESENTATION, Stage.EVIDENCE_FILE),  # 3/4. extract features, search for patterns
    (Stage.EVIDENCE_FILE, Stage.SCHEMA),            # 5. schematize
    (Stage.SCHEMA, Stage.HYPOTHESES),               # 6. build case
    (Stage.HYPOTHESES, Stage.PRESENTATION),         # 7. tell story
]

#: Human-readable labels of the numbered process steps.
STEP_LABELS = {
    1: "filter and select",
    2: "visualize",
    3: "extract features",
    4: "search for patterns",
    5: "schematize",
    6: "build case",
    7: "tell story",
}


class SensemakingModel:
    """The stage graph with forward and feedback edges.

    Forward edges are the numbered process steps; every forward edge
    has a matching back edge (the model's top-down arrows), so any
    adjacent move in either direction is a valid transition.
    """

    def __init__(self) -> None:
        g = nx.DiGraph()
        g.add_nodes_from(Stage)
        for a, b in _FORWARD:
            g.add_edge(a, b, direction="forward")
            g.add_edge(b, a, direction="back")
        self.graph = g

    def stages(self) -> list[Stage]:
        """Stages in forward process order."""
        return list(Stage)

    def is_valid_transition(self, src: Stage, dst: Stage) -> bool:
        """Whether moving from ``src`` to ``dst`` is one model step."""
        return self.graph.has_edge(src, dst)

    def is_forward(self, src: Stage, dst: Stage) -> bool:
        """Whether the edge is a bottom-up (data -> theory) step."""
        return (
            self.graph.has_edge(src, dst)
            and self.graph.edges[src, dst]["direction"] == "forward"
        )

    def path_coverage(self, visited: list[Stage]) -> float:
        """Fraction of stages a session touched — E8's stage-coverage
        statistic (the paper argues the tool exercised the full
        foraging loop plus schematization)."""
        return len(set(visited)) / len(Stage)

    def transition_mix(self, visited: list[Stage]) -> dict[str, int]:
        """Counts of bottom-up / top-down / stay moves in a session
        trace — quantifying the 'opportunistic mix' Pirolli describes.

        Moves are classified by process-order direction (any number of
        stages at once — the model's arrows chain, and real analysts
        jump): ``forward`` = toward theory, ``back`` = toward data,
        ``stay`` = same stage.  ``adjacent`` counts the moves that were
        single model edges.
        """
        order = {stage: i for i, stage in enumerate(Stage)}
        out = {"forward": 0, "back": 0, "stay": 0, "adjacent": 0}
        for a, b in zip(visited[:-1], visited[1:]):
            if a == b:
                out["stay"] += 1
            elif order[b] > order[a]:
                out["forward"] += 1
            else:
                out["back"] += 1
            if self.is_valid_transition(a, b):
                out["adjacent"] += 1
        return out
