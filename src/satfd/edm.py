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

G is symmetric, so its singular values are the magnitudes |lambda| of its
eigenvalues and its left singular vectors are its eigenvectors.  The
analysis therefore runs a symmetric eigensolver and orders each spectrum
by |lambda|, descending; no SVD is computed.  Readers of singular values
alone (calibration, training targets) run the values-only eigvalsh
(spectrum), which computes no eigenvector and sorts the magnitudes
themselves; readers of vectors (the vote, the predictor features) run
eigh, order it by magnitude_order and keep u1-u4.  Every function works
on a stack of cliques: cliques are an (m, k) integer array of satellite
ids, and a single clique is a batch of one, so the Monte-Carlo hot loops
run one stacked LAPACK call per epoch.  build_edm squares the epoch's
range matrix once and gathers every clique's block from it with one flat
take, which gives the same bits as gathering the ranges and squaring
them (squaring rounds each entry alone).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranging import RangeMatrix


class MissingEdgeError(RuntimeError):
    """A clique refers to a pair with no measured range (stale schedule)."""


def build_edm(ranges: RangeMatrix, cliques: np.ndarray) -> np.ndarray:
    """Squared measured ranges (m^2) of each clique, (m, k, k), zero diagonals.

    The members of a clique are distinct satellite ids.  The range matrix
    is squared once (diagonal zeroed), and every clique's block is one
    flat take from it.  Raises MissingEdgeError, naming the first such
    clique, if any clique pair has no measured range (range <= 0
    off-diagonal), which means the clique schedule is stale for this
    epoch's topology.
    """
    r = ranges.r
    n = len(r)
    # Entry (c, i, j) of flat is the index of r[cliques[c, i], cliques[c, j]]
    # in r's flattened (row-major) storage.
    flat = cliques * n
    flat = flat[:, :, None] + cliques[:, None, :]
    unmeasured = r <= 0.0
    unmeasured.flat[::n + 1] = False
    missing = unmeasured.take(flat)
    if missing.any():
        first = missing.reshape(len(cliques), -1).any(axis=1).argmax()
        raise MissingEdgeError(f"clique {cliques[first].tolist()} has unmeasured pairs")
    squared = r * r
    squared.flat[::n + 1] = 0.0
    return squared.take(flat)


def centering_matrix(n: int) -> np.ndarray:
    """J = I - (1/n) 1 1^T."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def geometric_center(d: np.ndarray) -> np.ndarray:
    """G = -1/2 J D J over the last two axes of a (..., k, k) stack.

    Each G is symmetric with zero row and column sums.
    """
    j = centering_matrix(d.shape[-1])
    return -0.5 * (j @ d @ j)


def canonicalize_signs(u: np.ndarray) -> np.ndarray:
    """Deterministic sign convention for singular vectors (columns).

    Eigenvector signs are arbitrary; each column is flipped so its
    largest-magnitude entry (first on ties) is positive.  Zero columns are
    left untouched.  Accepts a single (n, m) matrix or a stacked (..., n, m)
    array.
    """
    u = np.array(u, copy=True)
    mags = np.abs(u)
    lead = np.argmax(mags, axis=-2)
    lead_vals = np.take_along_axis(u, lead[..., None, :], axis=-2)[..., 0, :]
    flip = np.where(lead_vals < 0.0, -1.0, 1.0)
    return u * flip[..., None, :]


@dataclass(frozen=True)
class BatchAnalysis:
    """Stacked analyses of m cliques against one range matrix.

    left_vectors holds u1-u4 only (the vote reads u4, the predictor
    features u1-u3).  An analysis built without vectors
    (analyze_clique_batch(..., vectors=False)) has None for left_vectors
    and fault_vertex_local.
    """

    cliques: np.ndarray           # (m, k) satellite ids
    singular_values: np.ndarray   # (m, k) descending per row
    left_vectors: np.ndarray | None  # (m, k, 4): u1-u4 as columns
    gamma_test: np.ndarray        # (m,)
    fault_vertex_local: np.ndarray | None  # (m,) argmax |u4| per clique, first on ties

    def fault_vertex_global(self) -> np.ndarray:
        """Map per-clique fault attributions to satellite ids."""
        return self.cliques[np.arange(len(self.cliques)), self.fault_vertex_local]


def gamma_from_spectrum(s: np.ndarray) -> np.ndarray:
    """gamma_test = (s4 + s5) / s1 over the last axis of descending singular values.

    Defined as 0 when s1 = 0 (an all-zero matrix should never flag a fault).
    """
    lead = s[..., 0]
    return np.divide(
        s[..., 3] + s[..., 4], lead, out=np.zeros(lead.shape), where=lead > 0.0
    )


def magnitude_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices that sort each row of eigenvalues by |lambda|, descending.

    The sort is stable, so equal magnitudes keep eigh's ascending order.
    """
    return np.argsort(-np.abs(eigenvalues), axis=-1, kind="stable")


def spectrum(g: np.ndarray) -> np.ndarray:
    """Singular values |lambda| of each matrix of a (..., k, k) stack of
    centred matrices, descending; one eigvalsh, no eigenvectors.

    The magnitudes are sorted themselves: eigenvalues that magnitude_order
    would tie have equal |lambda|, so the values equal the |lambda| that
    magnitude_order puts in each place.
    """
    s = np.abs(np.linalg.eigvalsh(g))
    s.sort(axis=-1)
    return s[..., ::-1]


def analyze_clique_batch(
    ranges: RangeMatrix, cliques: np.ndarray, vectors: bool = True
) -> BatchAnalysis:
    """Singular values and left singular vectors u1-u4 of every clique's
    centered distance matrix, plus gamma_test.

    One batched eigh: singular values are |lambda| and the vectors are the
    eigenvectors, both in magnitude_order.  Vector signs are arbitrary.
    With vectors=False the values come from spectrum (eigvalsh) instead,
    and left_vectors and fault_vertex_local are None.  Requires cliques of
    k >= 5 vertices.
    """
    if cliques.shape[1] < 5:
        raise ValueError("gamma_test undefined for cliques smaller than 5")
    g = geometric_center(build_edm(ranges, cliques))
    if not vectors:
        s = spectrum(g)
        return BatchAnalysis(cliques=cliques, singular_values=s, left_vectors=None,
                             gamma_test=gamma_from_spectrum(s), fault_vertex_local=None)
    lam, vecs = np.linalg.eigh(g)
    order = magnitude_order(lam)
    s = np.abs(np.take_along_axis(lam, order, axis=1))
    # Gather u1-u4 as whole rows of the transposed stack: numpy copies
    # contiguous rows faster than it gathers single columns.
    u = vecs.swapaxes(1, 2)[np.arange(len(order))[:, None], order[:, :4]].swapaxes(1, 2)
    vertex = np.argmax(np.abs(u[:, :, 3]), axis=1)
    return BatchAnalysis(
        cliques=cliques,
        singular_values=s,
        left_vectors=u,
        gamma_test=gamma_from_spectrum(s),
        fault_vertex_local=vertex,
    )
