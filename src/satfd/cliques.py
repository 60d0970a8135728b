"""k-clique enumeration, the detection grid and clique schedules on time grids.

Detection subgraphs are k-cliques of the visibility graph; fully connected
subgraphs of 5 or more vertices keep their shape in 3D even after losing
any single vertex, which is what makes a single faulty member stand out.
CLIQUE_SIZE = 6 is the operational size; the enumerator works for any
k >= 1.  A detection window is DL epochs EPOCH_STEP = 60 s apart (every
grid's default step), and check_window keeps it within one orbital period.
epoch_count counts a span's epochs on a step and is the one rule on steps
and spans (check_window, calibration.sampling_times, satfd propagate).

Enumeration grows every clique one vertex at a time, level by level, as
numpy arrays.  upper is the adjacency above the diagonal (upper[u, v]: u
and v are linked and v > u).  Each j-clique carries the row of vertices
that are linked to all of its members and lie above its last member,
the AND of its members' rows of upper, and is extended by every such
vertex.  Each clique is reported exactly once, and the rows come out in
lexicographic order.  The members are kept as one index column per
position, gathered level by level, and stacked once at the end.

A schedule composes propagate, build_visibility_graph and list_k_cliques
over a time grid: positions and links are computed for the whole grid in
one array pass.  Two forms read that pass.  iter_schedule streams one
entry at a time and lists cliques at every epoch; sample_statistics,
satfd cliques and satfd detect take it.  build_clique_schedule holds every
entry and lists cliques once per distinct adjacency of the grid: entries
with equal adjacencies share one read-only clique array.  The link
topology barely moves along a 60 s grid (144 distinct adjacencies over
the 720 epochs of an elfo_moon period, 34 over a walker_mars period), so
campaign and training set-ups list a fifth of the epochs or fewer and
hold that much less.  Nothing is kept between calls.  The stream keeps
its per-epoch listing so that the benchmark's listing counts on
calibration and detect (one call per epoch) hold until a benchmark
change replaces them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationConfig, propagate
from .linkgraph import VisibilityGraph, build_visibility_graph

# Size of the detection subgraphs: the paper's 6-cliques.
CLIQUE_SIZE = 6
# Seconds between the epochs of a detection window: the paper's step.
EPOCH_STEP = 60.0


def epoch_count(span: float, step: float) -> int:
    """ceil(span / step), the epochs of step s in a span of span s; a ValueError
    naming both unless step is > 0 and finite and so are span and the count."""
    count = span / step if 0.0 < step < math.inf else math.nan
    if not -math.inf < count < math.inf:
        raise ValueError(f"need a finite step > 0 and a finite span of finitely many steps, "
                         f"got step={step!r} s, span={span!r} s")
    return math.ceil(count)


def check_window(dl: int, period: float, step: float, field: str) -> int:
    """epoch_count(period, step), the epochs of one orbital period, once a
    window of dl epochs is checked to lie in 1 .. that count (the errors of
    that check name field)."""
    epochs = epoch_count(period, step)
    if dl < 1:
        raise ValueError(f"{field} must be >= 1, got {dl}")
    if dl > epochs:
        raise ValueError(f"{field} must not exceed one orbital period, "
                         f"{epochs} epochs of {step:g} s; got {dl}")
    return epochs


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
        raise ValueError(f"k must be >= 1, got {k}")
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


def _grid_topology(
    config: ConstellationConfig, times: list[float] | np.ndarray
) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """(t, positions, adjacency) of each epoch of times, from one
    propagate and one build_visibility_graph over the whole grid."""
    times = np.asarray(times, dtype=float)
    positions = propagate(config, times)
    adjacency = build_visibility_graph(positions, config.body.radius).adjacency
    return zip(times.tolist(), positions, adjacency)


def iter_schedule(
    config: ConstellationConfig, times: list[float] | np.ndarray, k: int = CLIQUE_SIZE
) -> Iterator[ScheduleEntry]:
    """The ScheduleEntry of each epoch of times, one at a time.

    Positions and visibility are computed for the whole grid in one array
    pass; each entry's positions and graph are slices of it.  The k-cliques
    are listed as each entry is reached, so a caller that drops an entry
    before taking the next holds one epoch's cliques at a time.
    """
    for t, pos, adj in _grid_topology(config, times):
        graph = VisibilityGraph(adjacency=adj)
        yield ScheduleEntry(t=t, positions=pos, graph=graph, cliques=list_k_cliques(graph, k))


def build_clique_schedule(
    config: ConstellationConfig, times: list[float] | np.ndarray
) -> tuple[ScheduleEntry, ...]:
    """Every entry of iter_schedule, with CLIQUE_SIZE-cliques, as a tuple.

    Cliques are listed once per distinct adjacency; entries with equal
    adjacencies hold the same clique array, which is read-only so that no
    caller can change one epoch's cliques through another.
    """
    listed: dict[bytes, np.ndarray] = {}
    entries = []
    for t, pos, adj in _grid_topology(config, times):
        graph = VisibilityGraph(adjacency=adj)
        key = adj.tobytes()
        cliques = listed.get(key)
        if cliques is None:
            cliques = listed[key] = list_k_cliques(graph, CLIQUE_SIZE)
            cliques.flags.writeable = False
        entries.append(ScheduleEntry(t=t, positions=pos, graph=graph, cliques=cliques))
    return tuple(entries)
