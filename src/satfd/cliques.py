"""k-clique enumeration and clique schedules over a time grid.

Detection subgraphs are k-cliques of the visibility graph; fully connected
subgraphs of 5 or more vertices keep their shape in 3D even after losing
any single vertex, which is what makes a single faulty member stand out.
CLIQUE_SIZE = 6 is the operational size; the enumerator works for any
k >= 1.

Enumeration grows every clique one vertex at a time, level by level, as
numpy arrays.  upper is the adjacency above the diagonal (upper[u, v]: u
and v are linked and v > u).  Each j-clique carries the row of vertices
that are linked to all of its members and lie above its last member,
the AND of its members' rows of upper, and is extended by every such
vertex.  Each clique is reported exactly once, and the rows come out in
lexicographic order.  The members are kept as one index column per
position, gathered level by level, and stacked once at the end.

A schedule composes propagate, build_visibility_graph and list_k_cliques
over a time grid (iter_schedule): positions and links are computed for
the whole grid in one array pass, and cliques are listed once per epoch.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationConfig, propagate
from .linkgraph import VisibilityGraph, build_visibility_graph

# Size of the detection subgraphs: the paper's 6-cliques.
CLIQUE_SIZE = 6


@dataclass(frozen=True)
class ScheduleEntry:
    """One epoch t of the predicted topology.

    positions is the epoch's (n, 3) slice of propagate's positions on the
    grid, and cliques the (m, k) integer array of satellite ids that
    list_k_cliques returns for graph.
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
    upper = np.triu(adj, 1)
    columns = [np.arange(n, dtype=np.intp)]
    # common[r, v]: v is above the last member of clique r and adjacent to
    # all of its members.
    common = upper
    for _ in range(k - 1):
        # Extending only by vertices above the last member lists each clique
        # once; nonzero is row-major, so the rows stay lexicographic.
        rows, v = np.nonzero(common)
        columns = [c.take(rows) for c in columns]
        columns.append(v)
        common = common.take(rows, axis=0) & upper.take(v, axis=0)
    return np.stack(columns, axis=1)


def iter_schedule(
    config: ConstellationConfig, times: list[float] | np.ndarray, k: int = CLIQUE_SIZE
) -> Iterator[ScheduleEntry]:
    """The ScheduleEntry of each epoch of times, one at a time.

    Positions and visibility are computed for the whole grid in one array
    pass; each entry's positions and graph are slices of it.  The k-cliques
    are listed as each entry is reached, so a caller that drops an entry
    before taking the next holds one epoch's cliques at a time.
    """
    times = np.asarray(times, dtype=float)
    positions = propagate(config, times)
    adjacency = build_visibility_graph(positions, config.body.radius).adjacency
    for t, pos, adj in zip(times.tolist(), positions, adjacency):
        graph = VisibilityGraph(adjacency=adj)
        yield ScheduleEntry(t=t, positions=pos, graph=graph, cliques=list_k_cliques(graph, k))


def build_clique_schedule(
    config: ConstellationConfig, times: list[float] | np.ndarray
) -> tuple[ScheduleEntry, ...]:
    """Every entry of iter_schedule, with CLIQUE_SIZE-cliques, as a tuple."""
    return tuple(iter_schedule(config, times))
