"""k-clique enumeration and per-epoch clique schedules.

Detection subgraphs are k-cliques of the visibility graph; fully connected
subgraphs of 5 or more vertices keep their shape in 3D even after losing
any single vertex, which is what makes a single faulty member stand out.
k = 6 is the operational size; the enumerator works for any k >= 1.

Enumeration is the classic arboricity-style recursion: order vertices by
degree, and for each vertex expand cliques inside the subgraph induced by
its higher-ranked neighbors.  Each clique is reported exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationConfig, PositionSet, propagate
from .linkgraph import VisibilityGraph, build_visibility_graph


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
    n = graph.n
    if k > n:
        return np.zeros((0, k), dtype=np.intp)
    adj = graph.adjacency
    # Rank vertices by ascending degree (ties by id); expanding only toward
    # higher-ranked neighbors bounds the recursion by the graph's degeneracy.
    degrees = adj.sum(axis=1)
    order = sorted(range(n), key=lambda v: (degrees[v], v))
    rank = {v: r for r, v in enumerate(order)}

    neighbors = [set(np.nonzero(adj[v])[0].tolist()) for v in range(n)]
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], candidates: set[int]):
        if len(prefix) == k:
            out.append(tuple(sorted(prefix)))
            return
        for v in sorted(candidates, key=lambda u: rank[u]):
            extend(prefix + [v], {u for u in candidates & neighbors[v] if rank[u] > rank[v]})

    for v in order:
        extend([v], {u for u in neighbors[v] if rank[u] > rank[v]})
    out.sort()
    return np.array(out, dtype=np.intp).reshape(len(out), k)


def schedule_entry(config: ConstellationConfig, t: float, k: int) -> ScheduleEntry:
    """Positions, visibility graph and k-cliques of the topology at epoch t."""
    positions = propagate(config, float(t))
    graph = build_visibility_graph(positions, config.body.radius)
    return ScheduleEntry(positions=positions, graph=graph, cliques=list_k_cliques(graph, k))


def build_clique_schedule(
    config: ConstellationConfig, times: list[float] | np.ndarray, k: int
) -> CliqueSchedule:
    """schedule_entry at each epoch of times."""
    return CliqueSchedule(entries=tuple(schedule_entry(config, t, k) for t in times))
