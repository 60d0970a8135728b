"""Distance-matrix analysis of clique subgraphs.

The detection primitive: square the measured ranges of a fully connected
subgraph into a distance matrix D, center it,

    G = -1/2 * J D J,      J = I - (1/n) 1 1^T,

and inspect the singular values of G.  For exact ranges of points in 3D,
G has rank 3; a biased satellite raises the 4th and 5th singular values,
so the ratio

    gamma_test = (s4 + s5) / s1

separates faulted from fault-free subgraphs, and the largest-magnitude
entry of the 4th left singular vector points at the faulty vertex.

All matrices here are tiny (k x k with k around 6), so full SVDs are used
throughout.  Every function works on a stack of cliques: cliques are an
(m, k) integer array of satellite ids, and a single clique is a batch of
one, so the Monte-Carlo hot loops run one stacked LAPACK call per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranging import RangeMatrix


class MissingEdgeError(RuntimeError):
    """A clique refers to a pair with no measured range (stale schedule)."""


def build_edm(ranges: RangeMatrix, cliques: np.ndarray) -> np.ndarray:
    """Squared measured ranges (m^2) of each clique, (m, k, k), zero diagonals.

    Raises MissingEdgeError if any clique pair has no measured range
    (range 0 off-diagonal), which means the clique schedule is stale for
    this epoch's topology.
    """
    k = cliques.shape[1]
    sub = ranges.r[cliques[:, :, None], cliques[:, None, :]]
    off = ~np.eye(k, dtype=bool)
    missing = np.any(sub[:, off] <= 0.0, axis=1)
    if missing.any():
        raise MissingEdgeError(f"clique {cliques[missing.argmax()].tolist()} has unmeasured pairs")
    d = sub**2
    d[:, np.arange(k), np.arange(k)] = 0.0
    return d


def centering_matrix(n: int) -> np.ndarray:
    """J = I - (1/n) 1 1^T."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def geometric_center(d: np.ndarray) -> np.ndarray:
    """G = -1/2 J D J over the last two axes of a (..., k, k) stack.

    Each G is symmetric with zero row and column sums.
    """
    j = centering_matrix(d.shape[-1])
    return -0.5 * (j @ d @ j)


def numerical_rank(singular_values: np.ndarray, rel_tol: float) -> int:
    """Count of singular values above rel_tol * largest; 0 for a zero matrix."""
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def canonicalize_signs(u: np.ndarray) -> np.ndarray:
    """Deterministic sign convention for singular vectors (columns).

    SVD signs are arbitrary; each column is flipped so its largest-magnitude
    entry (first on ties) is positive.  Zero columns are left untouched.
    Accepts a single (n, m) matrix or a stacked (..., n, m) array.
    """
    u = np.array(u, copy=True)
    mags = np.abs(u)
    lead = np.argmax(mags, axis=-2)
    lead_vals = np.take_along_axis(u, lead[..., None, :], axis=-2)[..., 0, :]
    flip = np.where(lead_vals < 0.0, -1.0, 1.0)
    return u * flip[..., None, :]


@dataclass(frozen=True)
class BatchAnalysis:
    """Stacked analyses of m cliques against one range matrix."""

    cliques: np.ndarray           # (m, k) satellite ids
    singular_values: np.ndarray   # (m, k) descending per row
    left_vectors: np.ndarray      # (m, k, k)
    gamma_test: np.ndarray        # (m,)
    fault_vertex_local: np.ndarray  # (m,) argmax |u4| per clique, first on ties

    def fault_vertex_global(self) -> np.ndarray:
        """Map per-clique fault attributions to satellite ids."""
        return self.cliques[np.arange(len(self.cliques)), self.fault_vertex_local]


def analyze_clique_batch(ranges: RangeMatrix, cliques: np.ndarray) -> BatchAnalysis:
    """Full SVD of every clique's centered distance matrix plus gamma_test.

    gamma_test = (s4 + s5) / s1 with singular values descending; defined
    as 0 when s1 = 0 (an all-zero matrix should never flag a fault).
    Requires cliques of k >= 5 vertices.
    """
    if cliques.shape[1] < 5:
        raise ValueError("gamma_test undefined for cliques smaller than 5")
    u, s, _ = np.linalg.svd(geometric_center(build_edm(ranges, cliques)))
    lead = s[:, 0]
    gamma = np.divide(
        s[:, 3] + s[:, 4], lead, out=np.zeros(len(cliques)), where=lead > 0.0
    )
    vertex = np.argmax(np.abs(u[:, :, 3]), axis=1)
    return BatchAnalysis(
        cliques=cliques,
        singular_values=s,
        left_vectors=u,
        gamma_test=gamma,
        fault_vertex_local=vertex,
    )
