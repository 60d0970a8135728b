"""Inter-satellite link visibility: spherical-body occultation model.

A link between two satellites exists when the segment joining them stays
outside the central body, modeled as a perfect sphere at the origin.  No
antenna field-of-view or link-budget constraints are applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import PositionSet


@dataclass(frozen=True)
class VisibilityGraph:
    """Undirected link topology at one epoch.

    adjacency is a symmetric (n, n) boolean matrix with a false diagonal.
    """

    adjacency: np.ndarray

    def degree(self, i: int) -> int:
        return int(self.adjacency[i].sum())

    def edges(self) -> list[tuple[int, int]]:
        """Sorted (i, j) pairs with i < j."""
        ii, jj = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(ii.tolist(), jj.tolist()))


def line_of_sight(p1: np.ndarray, p2: np.ndarray, radius: float) -> np.ndarray:
    """True where the segment [p1, p2] clears the sphere of given radius.

    p1 and p2 are (..., 3) arrays; the test broadcasts over their leading
    axes and returns a boolean array of that shape.  The closest point of
    the segment to the origin is at parameter
    s* = clamp(-p1.(p2-p1) / |p2-p1|^2, 0, 1); the link is visible when
    that point is at distance >= radius.  Coincident endpoints are treated
    as visible (both are above the surface by precondition).
    """
    d = p2 - p1
    dd = (d * d).sum(axis=-1)
    coincident = dd == 0.0
    s = np.clip(-(p1 * d).sum(axis=-1) / np.where(coincident, 1.0, dd), 0.0, 1.0)
    closest = p1 + s[..., None] * d
    return coincident | ((closest * closest).sum(axis=-1) >= radius * radius)


def build_visibility_graph(positions: PositionSet, radius: float) -> VisibilityGraph:
    """Occultation-limited link graph for one position set."""
    pos = positions.positions
    n = pos.shape[0]
    i, j = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[i, j] = adj[j, i] = line_of_sight(pos[i], pos[j], radius)
    return VisibilityGraph(adjacency=adj)
