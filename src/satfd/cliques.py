"""k-clique enumeration and per-epoch clique schedules.

Detection subgraphs are k-cliques of the visibility graph; fully connected
subgraphs of 5 or more vertices keep their shape in 3D even after losing
any single vertex, which is what makes a single faulty member stand out.
CLIQUE_SIZE = 6 is the operational size; the enumerator works for any
k >= 1.

Enumeration grows every clique one vertex at a time, level by level, as
numpy arrays: each j-clique carries the boolean mask of vertices
adjacent to all of its members, and is extended by every such vertex
above its last member.  Each clique is reported exactly once, and the
rows come out in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationConfig, PositionSet, propagate
from .linkgraph import VisibilityGraph, build_visibility_graph

# Size of the detection subgraphs: the paper's 6-cliques.
CLIQUE_SIZE = 6


@dataclass(frozen=True)
class ScheduleEntry:
    """One epoch of the predicted topology.

    cliques is the (m, k) integer array of satellite ids that
    list_k_cliques returns for graph.
    """

    positions: PositionSet
    graph: VisibilityGraph
    cliques: np.ndarray

    @property
    def t(self) -> float:
        return self.positions.t


@dataclass(frozen=True)
class CliqueSchedule:
    """Cliques of the predicted topology at each epoch, strictly increasing t."""

    entries: tuple[ScheduleEntry, ...]

    def __post_init__(self):
        ts = [e.t for e in self.entries]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("schedule epochs must be strictly increasing")


def list_k_cliques(graph: VisibilityGraph, k: int) -> np.ndarray:
    """All k-cliques of the graph, each once, as lexicographically sorted
    rows of an (m, k) np.intp array; (0, k) when there are none."""
    if k < 1:
        raise ValueError("k must be >= 1")
    adj = graph.adjacency
    n = len(adj)
    if k > n:
        return np.zeros((0, k), dtype=np.intp)
    ids = np.arange(n, dtype=np.intp)
    cliques = ids[:, None]
    # common[r, v]: v is adjacent to every member of clique r.
    common = adj.copy()
    for _ in range(k - 1):
        # Extending only by vertices above the last member lists each clique
        # once; nonzero is row-major, so the rows stay lexicographic.
        rows, v = np.nonzero(common & (ids > cliques[:, -1:]))
        cliques = np.column_stack([cliques[rows], v])
        common = common[rows] & adj[v]
    return cliques


def schedule_entry(config: ConstellationConfig, t: float, k: int) -> ScheduleEntry:
    """Positions, visibility graph and k-cliques of the topology at epoch t."""
    positions = propagate(config, float(t))
    graph = build_visibility_graph(positions, config.body.radius)
    return ScheduleEntry(positions=positions, graph=graph, cliques=list_k_cliques(graph, k))


def build_clique_schedule(
    config: ConstellationConfig, times: list[float] | np.ndarray
) -> CliqueSchedule:
    """schedule_entry of the CLIQUE_SIZE-cliques at each epoch of times."""
    return CliqueSchedule(tuple(schedule_entry(config, t, CLIQUE_SIZE) for t in times))
