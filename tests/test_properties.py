"""Property tests of the clique lister and the clique analysis kernel.

list_k_cliques must give exactly the k-subsets of mutually adjacent
vertices, as lexicographically sorted np.intp rows, on any graph.

gamma_test depends only on the shape of a clique's measured ranges, so it
must not change when the vertices are relabeled, when the points move
rigidly, or when every range is scaled; the voted vertex must follow the
relabeling; and stacking cliques into one batch must not change any row.
"""

import itertools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satfd import edm
from satfd.cliques import list_k_cliques
from satfd.linkgraph import VisibilityGraph
from satfd.ranging import RangeMatrix

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Octahedron vertices: centred coordinates with singular values sqrt(2) each.
# Offsets of at most 0.3 per coordinate move each point by < 0.52, so by
# Weyl's inequality the clique stays non-coplanar and its points distinct.
OCTAHEDRON = np.vstack([np.eye(3), -np.eye(3)])
CLIQUE = np.arange(6)[None]


@st.composite
def faulted_clique(draw):
    """(points, range perturbation): six 3D points and a symmetric
    perturbation made of small noise plus a bias on one faulty vertex."""
    offsets = draw(arrays(np.float64, (6, 3), elements=st.floats(-0.3, 0.3)))
    noise = draw(arrays(np.float64, (6, 6), elements=st.floats(-1e-3, 1e-3)))
    w = np.triu(noise, 1)
    bias = np.zeros(6)
    bias[draw(st.integers(0, 5))] = draw(st.floats(0.01, 0.1))
    return OCTAHEDRON + offsets, w + w.T + bias[:, None] + bias[None, :]


def ranges_of(points, perturbation):
    diff = points[:, None, :] - points[None, :, :]
    r = np.sqrt((diff**2).sum(axis=2)) + perturbation
    np.fill_diagonal(r, 0.0)
    return RangeMatrix(r=r)


def rotation(a, b, c):
    """Rotation by Euler angles a, b, c about the z, y and z axes."""
    def rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0],
                         [0.0, 0.0, 1.0]])

    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0],
                   [-np.sin(b), 0.0, np.cos(b)]])
    return rz(a) @ ry @ rz(c)


angles = st.floats(-np.pi, np.pi)


@st.composite
def random_graph(draw):
    """A graph on 0 to 14 vertices whose edges are kept with a drawn density."""
    n = draw(st.integers(0, 14))
    density = draw(st.floats(0.0, 1.0))
    draws = draw(arrays(np.float64, n * (n - 1) // 2, elements=st.floats(0.0, 1.0)))
    i, j = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[i, j] = draws < density
    return VisibilityGraph(adjacency=adj | adj.T)


def brute_force_cliques(graph, k):
    """Oracle: filter all C(n, k) subsets, as an (m, k) array."""
    adj = graph.adjacency
    rows = [
        c for c in itertools.combinations(range(len(graph.adjacency)), k)
        if all(adj[a, b] for a, b in itertools.combinations(c, 2))
    ]
    return np.array(rows, dtype=np.intp).reshape(len(rows), k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_graph(), st.integers(1, 8))
def test_cliques_match_brute_force(graph, k):
    found = list_k_cliques(graph, k)
    assert found.dtype == np.intp
    assert found.shape == (found.shape[0], k)
    rows = found.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))  # lexicographic, no repeats
    assert np.array_equal(found, brute_force_cliques(graph, k))


@KERNEL
@given(faulted_clique(), st.permutations(range(6)))
def test_gamma_invariant_under_vertex_permutation(clique, perm):
    rm = ranges_of(*clique)
    base = edm.analyze_clique_batch(rm, CLIQUE)
    permuted = edm.analyze_clique_batch(rm, np.array(perm)[None])
    assert np.isclose(permuted.gamma_test[0], base.gamma_test[0], rtol=1e-9, atol=0.0)


@KERNEL
@given(faulted_clique(), st.permutations(range(6)))
def test_voted_vertex_follows_permutation(clique, perm):
    rm = ranges_of(*clique)
    base = edm.analyze_clique_batch(rm, CLIQUE)
    u4 = np.sort(np.abs(base.left_vectors[0, :, 3]))
    assume(u4[-1] - u4[-2] > 1e-6)  # the vote is only defined for a unique largest |u4|
    permuted = edm.analyze_clique_batch(rm, np.array(perm)[None])
    assert permuted.fault_vertex_global()[0] == base.fault_vertex_global()[0]


@KERNEL
@given(faulted_clique(), angles, angles, angles,
       arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)))
def test_gamma_invariant_under_rigid_motion(clique, a, b, c, shift):
    points, perturbation = clique
    moved = points @ rotation(a, b, c).T + shift
    base = edm.analyze_clique_batch(ranges_of(points, perturbation), CLIQUE)
    other = edm.analyze_clique_batch(ranges_of(moved, perturbation), CLIQUE)
    assert np.isclose(other.gamma_test[0], base.gamma_test[0], rtol=1e-6, atol=0.0)


@KERNEL
@given(faulted_clique(), st.floats(1e-3, 1e6))
def test_gamma_invariant_under_uniform_scaling(clique, scale):
    # scaling the points scales every measured range, noise and bias included
    rm = ranges_of(*clique)
    base = edm.analyze_clique_batch(rm, CLIQUE)
    scaled = edm.analyze_clique_batch(RangeMatrix(r=scale * rm.r), CLIQUE)
    assert np.isclose(scaled.gamma_test[0], base.gamma_test[0], rtol=1e-9, atol=0.0)


@KERNEL
@given(st.integers(6, 9), st.integers(0, 2**32 - 1),
       arrays(np.float64, 9, elements=st.floats(0.0, 0.1)))
def test_batch_rows_equal_batches_of_one(n, seed, bias):
    points = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 3))
    rm = ranges_of(points, bias[:n, None] + bias[None, :n])
    cliques = np.array(list(itertools.combinations(range(n), 6)), dtype=np.intp)
    batch = edm.analyze_clique_batch(rm, cliques)
    for row in range(len(cliques)):
        single = edm.analyze_clique_batch(rm, cliques[row:row + 1])
        assert np.array_equal(batch.singular_values[row], single.singular_values[0])
        assert np.array_equal(batch.left_vectors[row], single.left_vectors[0])
        assert batch.gamma_test[row] == single.gamma_test[0]
        assert batch.fault_vertex_local[row] == single.fault_vertex_local[0]
