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

from .constellation import ConstellationConfig, propagate
from .linkgraph import VisibilityGraph, build_visibility_graph

# Size of the detection subgraphs: the paper's 6-cliques.
CLIQUE_SIZE = 6


@dataclass(frozen=True)
class ScheduleEntry:
    """One epoch t of the predicted topology.

    positions is the (n, 3) array that propagate returns, and cliques the
    (m, k) integer array of satellite ids that list_k_cliques returns for
    graph.
    """

    t: float
    positions: np.ndarray
    graph: VisibilityGraph
    cliques: np.ndarray


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
    t = float(t)
    positions = propagate(config, t)
    graph = build_visibility_graph(positions, config.body.radius)
    return ScheduleEntry(t=t, positions=positions, graph=graph, cliques=list_k_cliques(graph, k))


def build_clique_schedule(
    config: ConstellationConfig, times: list[float] | np.ndarray
) -> tuple[ScheduleEntry, ...]:
    """schedule_entry of the CLIQUE_SIZE-cliques at each epoch of times."""
    return tuple(schedule_entry(config, t, CLIQUE_SIZE) for t in times)
