"""Property tests of the clique lister, the clique analysis kernel and the
greedy detector loop.

list_k_cliques must give exactly the k-subsets of mutually adjacent
vertices, as lexicographically sorted np.intp rows, on any graph.

gamma_test depends only on the shape of a clique's measured ranges, so it
must not change when the vertices are relabeled, when the points move
rigidly, or when every range is scaled; the voted vertex must follow the
relabeling; and stacking cliques into one batch must not change any row.
The kernel's eigh spectrum, ordered by |lambda|, must match a full SVD of
the same centred matrix to a stated multiple of eps * s1, and vote for the
same vertex wherever u4 is well determined.  The values-only kernel
(eigvalsh) must match the eigh kernel to the same multiple, and its gamma
to 256 eps.  build_edm (one flat take from the squared range matrix) must
equal gathering each clique's ranges and squaring them, bit for bit, and
refuse the same first clique where pairs are unmeasured; spectrum (|lambda|
sorted) must equal the magnitude_order gather bit for bit.

Fault biases must add up: on one noise draw, the range change from the
union of two disjoint fault sets is the sum of their separate changes.

On exact ranges, a schedule 6-clique's centred matrix must have rank 3
((s4 + s5) <= 1e-13 * s1), and biasing one member by 10 m to 10 km must
lift s4 above that.

The greedy loop must give the removal order and per-round vote counts of a
reference that rebuilds its live set from every removed satellite each
round, whatever the memory layout of the table's vertex column.

A held clique schedule (build_clique_schedule, one listing per distinct
adjacency) must equal the per-epoch stream (iter_schedule) entry by entry
on any time grid, repeated and unsorted epochs included.  satfd propagate
must write a row for exactly the epochs t-start + k*step <= t-end + 1e-9,
on grids whose ends lie within a few ulps of that bound.

A campaign trial's shared analyses (CampaignContext.epoch_analyses, which
analyses each distinct clique measurement once) must equal, field for
field, analysing every fault config on its own measured ranges, on drawn
grids and on the paper's 20 configs.  A trial's cell counts (which flag
each analysed row once per threshold and take each detection length as a
row prefix) must equal a reference that measures, analyses and detects
every cell on its own, windows with epochs of no clique included, and a
campaign's results must not depend on its worker count, and the
processes of a parallel campaign, taking trials from one shared counter,
must take each trial exactly once.

The predictor's training set (build_training_set, which measures each
geometry as its own 6x6 block and takes blocks of consecutive geometries)
must equal, bit for bit, a reference that analyses each clique inside its
epoch's range matrix, one geometry at a time, and a call for n geometries
must give the first n rows of a call for more, so no row depends on where
a block boundary falls.  The bounds that decide
which noise draws it solves (edm._gamma_bounds) must contain the
solved gamma_test of every draw, at every noise level from none to 500 m,
and edm.top_gammas must give every row's top keep values of solving every
draw, bit for bit, for any keep; a coplanar clique, where the bounds have no gap to work with, must have
every draw solved and the reference's target.

An analysis under thresholds must hold no values or vectors, give every
row the eigensolver solves the gamma_test and vote bits of the unscreened
analysis, and flag every row at every given threshold, and vote for
every flagged row, as the unscreened analysis does; it must refuse to
run without vectors or on cliques of 5, 7, 8 or 9 points.  A screened
detection and a campaign trial must equal their unscreened references.
The certificate (edm._settle) must flag a row it settles at every given
threshold as eigh, eigvalsh and eigvalsh of every matrix within the
eigensolvers' backward error do, vote as eigh does where a threshold flags
the row and for vertex 0 where none does, on schedule epochs of both
bundled configs, the coplanar clique and cliques with two coincident
satellites, at noise levels from none to 500 m, biases up to 1e6 m and
drawn threshold tuples.  The M it folds from a clique's 15 squared pair
ranges must be H^T G H of the G that eigh solves, to the allowance the edm
module docstring derives, and an analysis under thresholds must refuse a
range matrix whose two triangles differ at a drawn pair, naming the pair.
"""

import contextlib
import copy
import dataclasses
import functools
import io
import itertools
import math
import multiprocessing
import random
import re
import sys
import tempfile
import threading
import types
import unittest.mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satfd import edm, experiment
from satfd.cli import main
from satfd.cliques import CLIQUE_SIZE, build_clique_schedule, iter_schedule, list_k_cliques
from satfd.constellation import config_from_dict, load_bundled, propagate
from satfd.calibration import (
    FEATURE_DIM,
    BLOCK_DRAWS,
    TAIL_PERCENTILE,
    MlpPredictor,
    batch_features,
    build_training_set,
    sampling_times,
)
from satfd.detector import (
    DetectorParams,
    analysis_thresholds,
    detect_faults,
    detect_faults_from_analyses,
    table_from_analyses,
    vote,
)
from satfd.experiment import (
    CampaignContext,
    ExperimentGrid,
    ThresholdSpec,
    _trial_cell_counts,
    run_campaign,
)
from satfd.linkgraph import VisibilityGraph, build_visibility_graph
from satfd.ranging import (
    FaultConfig, RangeMatrix, add_bias, measure_ranges, mirror_pairs, pair_draws, pair_noise,
    pair_rows, true_ranges,
)
from satfd.seeds import EPOCH_NOISE, TRAINING, substream
from test_detector import vote_alone
from test_edm import assert_same_decisions, gathered, recorded_settles, settled_rows

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Octahedron vertices: centred coordinates with singular values sqrt(2) each.
# Offsets of at most 0.3 per coordinate move each point by < 0.52, so by
# Weyl's inequality the clique stays non-coplanar and its points distinct.
OCTAHEDRON = np.vstack([np.eye(3), -np.eye(3)])
CLIQUE = np.arange(6)[None]


@st.composite
def faulted_clique(draw, faulty=True):
    """(points, range perturbation): six 3D points and a symmetric
    perturbation made of small noise plus, if faulty, a bias on one vertex."""
    offsets = draw(arrays(np.float64, (6, 3), elements=st.floats(-0.3, 0.3)))
    noise = draw(arrays(np.float64, (6, 6), elements=st.floats(-1e-3, 1e-3)))
    w = np.triu(noise, 1)
    bias = np.zeros(6)
    if faulty:
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


@st.composite
def propagate_grid(draw):
    """(t-start, t-end, step) of up to about 40 epochs: t-end a few ulps from
    a grid point less the 1e-9 s allowance, on it, or up to a step past it."""
    t_start = draw(st.one_of(st.floats(-1e6, 1e6), st.integers(-10**6, 10**6).map(float)))
    step = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-3, 0.1, 7.3, 60.0])))
    point = t_start + step * draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["allowance", "point", "past"]))
    if kind == "past":
        return t_start, point + draw(st.floats(0.0, step)), step
    t_end = point - 1e-9 if kind == "allowance" else point
    for _ in range(abs(ulps := draw(st.integers(-3, 3)))):
        t_end = math.nextafter(t_end, math.copysign(math.inf, ulps))
    assume(t_end >= t_start)
    return t_start, t_end, step


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(propagate_grid())
# Grids on which the floor of the rounded epoch quotient stopped one epoch short.
@example(grid=(-120.0, 150.09999999899998, 7.3))
@example(grid=(1e6, 1000000.021999999, 0.001))
def test_propagate_writes_every_epoch_up_to_the_end(grid):
    t_start, t_end, step = grid
    want = []
    while (t := t_start + step * len(want)) <= t_end + 1e-9:
        want.append(repr(t))
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["propagate", "--config", "elfo_moon", "--out", out,
                         f"--t-start={t_start!r}", f"--t-end={t_end!r}",
                         f"--step={step!r}"]) == 0
        with open(f"{out}/positions.csv", encoding="utf-8") as fh:
            times = [line.split(",", 1)[0] for line in fh.readlines()[1::12]]
    assert times == want


SCHEDULE_CONFIGS = {name: load_bundled(name) for name in ("elfo_moon", "walker_mars")}

# Epochs on the campaigns' 60 s grid, where adjacencies repeat, and anywhere
# in the first two days.
grid_epoch = st.one_of(st.integers(0, 1500).map(lambda i: 60.0 * i), st.floats(0.0, 2e5))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SCHEDULE_CONFIGS)), st.lists(grid_epoch, max_size=30))
def test_held_schedule_equals_stream(name, drawn):
    config = SCHEDULE_CONFIGS[name]
    times = drawn + drawn[::2]  # repeats every other epoch, out of order
    held = build_clique_schedule(config, times)
    streamed = list(iter_schedule(config, times))
    assert [e.t for e in held] == [e.t for e in streamed] == times
    for h, s in zip(held, streamed, strict=True):
        assert np.array_equal(h.positions, s.positions)
        assert np.array_equal(h.graph.adjacency, s.graph.adjacency)
        assert h.cliques.dtype == s.cliques.dtype
        assert np.array_equal(h.cliques, s.cliques)


# Over every clique of every 60 s epoch of one period of both bundled
# configs, exact ranges give (s4 + s5) / s1 <= 7.5e-16 (rounding), and one
# member biased by 10 m gives s4 / s1 >= 2.4e-12 (walker_mars; 1.7e-11 on
# elfo_moon), growing linearly with the bias.
RANK_TOL = 1e-13


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SCHEDULE_CONFIGS)), st.floats(0.0, 1.0, exclude_max=True),
       st.integers(0, 10**6), st.integers(0, CLIQUE_SIZE - 1), st.floats(10.0, 1e4))
def test_rank_law(name, when, pick, member, bias):
    # A 6-clique's centred matrix has rank 3 on exact ranges, and a biased
    # member lifts s4 out of rounding.
    config = SCHEDULE_CONFIGS[name]
    times = sampling_times(60.0, config.period)
    entry = next(iter_schedule(config, times[int(when * len(times))][None]))
    assume(len(entry.cliques))
    clique = entry.cliques[pick % len(entry.cliques)][None]
    exact = RangeMatrix(true_ranges(entry.positions, entry.graph))
    biased = add_bias(exact, entry.graph, FaultConfig({int(clique[0, member])}, bias))
    s, s_biased = (np.linalg.svd(edm.geometric_center(edm.build_edm(rm, clique))[0],
                                 compute_uv=False) for rm in (exact, biased))
    assert s[3] + s[4] <= RANK_TOL * s[0]
    assert s_biased[3] > RANK_TOL * s_biased[0]


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
    voted = [batch.cliques[0, batch.fault_vertex_local[0]] for batch in (permuted, base)]
    assert voted[0] == voted[1]


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


# Both eigh and the SVD are backward stable, so by Weyl's inequality each
# computed singular value is within p(k) * eps * s1 of the exact one, and the
# two solvers within twice that of each other.  The largest |ds| / s1 measured
# between them was 11.1 eps on 200,000 cliques drawn like these and 10.5 eps
# over one elfo_moon calibration period; C = 32 leaves a factor of about 3.
SPECTRUM_TOL = 32 * np.finfo(float).eps
# Where s3 - s4 and s4 - s5 exceed this fraction of s1, u4 moves by at most
# about SPECTRUM_TOL / GAP = 7e-9 (Davis-Kahan), far below VOTE_MARGIN.
GAP = 1e-6
VOTE_MARGIN = 1e-6


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(faulted_clique(), faulted_clique(faulty=False)))
def test_kernel_matches_svd(clique):
    rm = ranges_of(*clique)
    got = edm.analyze_clique_batch(rm, CLIQUE)
    u, s, _ = np.linalg.svd(edm.geometric_center(edm.build_edm(rm, CLIQUE))[0])
    assert np.abs(got.singular_values[0] - s).max() <= SPECTRUM_TOL * s[0]
    # gamma = (s4 + s5) / s1 is at most 2, so its error is at most 4 * SPECTRUM_TOL.
    assert abs(got.gamma_test[0] - edm.gamma_from_spectrum(s)) <= 4 * SPECTRUM_TOL
    u4 = np.sort(np.abs(u[:, 3]))
    if min(s[2] - s[3], s[3] - s[4]) > GAP * s[0] and u4[-1] - u4[-2] > VOTE_MARGIN:
        assert got.fault_vertex_local[0] == np.argmax(np.abs(u[:, 3]))


@KERNEL
@given(st.integers(6, 9), st.integers(0, 2**32 - 1), st.floats(0.0, 1e-3),
       arrays(np.float64, 9, elements=st.floats(0.0, 0.1)))
def test_values_only_matches_eigh(n, seed, sigma, bias):
    rng = np.random.default_rng(seed)
    noise = np.triu(rng.standard_normal((n, n)) * sigma, 1)
    rm = ranges_of(rng.uniform(0.0, 1.0, size=(n, 3)),
                   noise + noise.T + bias[:n, None] + bias[None, :n])
    cliques = np.array(list(itertools.combinations(range(n), 6)), dtype=np.intp)
    full = edm.analyze_clique_batch(rm, cliques)
    got = edm.analyze_clique_batch(rm, cliques, vectors=False)
    assert got.left_vectors is None and got.fault_vertex_local is None
    assert np.array_equal(got.cliques, full.cliques)
    s1 = full.singular_values[:, :1]
    assert np.all(np.abs(got.singular_values - full.singular_values) <= SPECTRUM_TOL * s1)
    assert np.all(np.abs(got.gamma_test - full.gamma_test) <= 256 * np.finfo(float).eps)
    # No measured clique centres to the all-zero matrix (build_edm refuses
    # zero ranges), so the spectrum meets it on a stacked centred matrix.
    g = edm.geometric_center(edm.build_edm(rm, cliques))
    with_zero = edm.spectrum(np.concatenate([g, np.zeros((1, 6, 6))]))
    assert np.array_equal(with_zero[:-1], got.singular_values)
    assert np.array_equal(with_zero[-1], np.zeros(6))
    assert edm.gamma_from_spectrum(with_zero)[-1] == 0.0


def gathered_edm(ranges, cliques):
    """build_edm's earlier formula: gather each clique's ranges, then square
    them; a clique with a range <= 0 off its diagonal is refused."""
    k = cliques.shape[1]
    sub = ranges.r[cliques[:, :, None], cliques[:, None, :]]
    off = ~np.eye(k, dtype=bool)
    missing = np.any(sub[:, off] <= 0.0, axis=1)
    if missing.any():
        raise edm.MissingEdgeError(f"clique {cliques[missing.argmax()].tolist()} has a range <= 0: "
                                   f"the pair is unmeasured, or its noise is larger than its range")
    d = sub**2
    d[:, np.arange(k), np.arange(k)] = 0.0
    return d


@st.composite
def edm_input(draw):
    """(ranges, cliques): an n x n matrix, not symmetric, whose entries are
    positive, or with a drawn density zero or negative (unmeasured), and
    up to 8 cliques of k distinct vertices each, in any order."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    r = draw(arrays(np.float64, (n, n), elements=st.floats(1e-3, 1e6)))
    unmeasured = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)))
    sign = draw(arrays(np.float64, (n, n), elements=st.sampled_from([0.0, -1.0])))
    r = np.where(unmeasured < draw(st.floats(0.0, 0.3)), sign * r, r)
    rows = draw(st.lists(st.permutations(range(n)), max_size=8))
    return RangeMatrix(r=r), np.array([p[:k] for p in rows], dtype=np.intp).reshape(-1, k)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edm_input())
def test_build_edm_equals_gather_then_square(case):
    ranges, cliques = case
    try:
        want = gathered_edm(ranges, cliques)
    except edm.MissingEdgeError as exc:
        with pytest.raises(edm.MissingEdgeError) as got:
            edm.build_edm(ranges, cliques)
        assert str(got.value) == str(exc)
        return
    got = edm.build_edm(ranges, cliques)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def symmetric_stack(draw):
    """(m, k, k) symmetric matrices, some with entries from a small integer
    set so that eigenvalues of equal magnitude and opposite sign occur."""
    m, k = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    elements = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), st.floats(-1e3, 1e3))
    a = draw(arrays(np.float64, (m, k, k), elements=elements))
    return a + a.swapaxes(1, 2)


@KERNEL
@given(symmetric_stack())
def test_spectrum_equals_magnitude_order_gather(g):
    lam = np.linalg.eigvalsh(g)
    want = np.abs(np.take_along_axis(lam, edm.magnitude_order(lam), axis=-1))
    assert np.array_equal(edm.spectrum(g), want)
    # A diagonal matrix has its diagonal as exact eigenvalues, so +x and -x
    # on one diagonal tie exactly in |lambda|.
    diag = g[:, 0, :, None] * np.eye(g.shape[-1])
    lam = np.linalg.eigvalsh(diag)
    want = np.abs(np.take_along_axis(lam, edm.magnitude_order(lam), axis=-1))
    assert np.array_equal(edm.spectrum(diag), want)


@functools.lru_cache(maxsize=None)
def elfo_epoch(t):
    """(positions, visibility graph) of elfo_moon at time t."""
    config = load_bundled("elfo_moon")
    positions = propagate(config, t)
    return positions, build_visibility_graph(positions, config.body.radius)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.permutations(range(12)), st.integers(0, 12), st.integers(0, 12),
       st.sampled_from([0.0, 3600.0, 20000.0]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 100.0))
def test_bias_effects_add_up(perm, i, j, t, seed, magnitude):
    i, j = sorted((i, j))
    positions, graph = elfo_epoch(t)

    def ranges(fault_set):
        rng = substream(seed, EPOCH_NOISE, 0, 0)
        return measure_ranges(positions, graph, FaultConfig(fault_set, magnitude), 1.0, rng).r

    # A = perm[:i] and B = perm[i:j] are disjoint, and A | B = perm[:j].
    none, a, b, both = ranges(()), ranges(perm[:i]), ranges(perm[i:j]), ranges(perm[:j])
    edge = graph.adjacency
    error = np.abs((both - none) - ((a - none) + (b - none)))
    # Each biased range is rounded once after the bias is added.
    assert np.all(error[edge] <= 4 * np.spacing(none[edge]))
    for r in (none, a, b, both):
        assert np.all(r[~edge] == 0.0)


@st.composite
def flag_window(draw):
    """(n_sats, per-epoch analyses): cliques of 6 random satellites, each
    flagged (gamma 1) or not (gamma 0) and voting for a random member."""
    n = draw(st.integers(6, 12))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(0, 40))
        keys = draw(arrays(np.float64, (m, n), elements=st.floats(0.0, 1.0)))
        cliques = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :6], axis=1)
        batches.append(edm.BatchAnalysis(
            cliques=cliques,
            singular_values=np.zeros((m, 6)),
            left_vectors=np.zeros((m, 6, 4)),
            gamma_test=draw(arrays(np.float64, m, elements=st.sampled_from([0.0, 1.0]))),
            fault_vertex_local=draw(arrays(np.intp, m, elements=st.integers(0, 5))),
        ))
    return n, batches


def reference_greedy(vertices, voted, live, params, n_sats):
    """Removal order and per-round counts of the rows live at the start,
    re-masking every removed satellite."""
    removed, history = [], []
    for _ in range(n_sats):
        alive = live.copy()
        for s in removed:
            alive &= ~np.any(vertices == s, axis=1)
        counts = np.bincount(voted[alive], minlength=n_sats)
        history.append(counts.tolist())
        total = counts.sum()
        if total < params.delta_nf or counts.max() / total < params.delta_rf:
            break
        removed.append(int(np.argmax(counts)))
    return removed, history


def window_table(batches, threshold):
    """(vertices, voted, flagged) of per-epoch analyses under a scalar threshold."""
    return (np.concatenate([b.cliques for b in batches]),
            np.concatenate([b.cliques[np.arange(len(b.cliques)), b.fault_vertex_local]
                            for b in batches]),
            np.concatenate([b.gamma_test > threshold for b in batches]))


def laid_out(vertices, layout):
    """vertices as a C-ordered array, a Fortran-ordered one, or a
    non-contiguous column slice of a wider array."""
    if layout == "F":
        return np.asfortranarray(vertices)
    if layout == "slice":
        wide = np.concatenate([vertices, vertices[:, :1]], axis=1)[:, :-1]
        assert not (wide.flags.c_contiguous or wide.flags.f_contiguous) or len(wide) < 2
        return wide
    return vertices


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(flag_window(), st.integers(1, 6), st.floats(0.05, 0.6),
       st.sampled_from(["C", "F", "slice"]))
def test_greedy_matches_remasking_reference(window, delta_nf, delta_rf, layout):
    n, batches = window
    params = DetectorParams(delta_nf=delta_nf, delta_rf=delta_rf, gamma_threshold=0.5)
    table = table_from_analyses(batches, params)
    table = dataclasses.replace(table, vertices=laid_out(table.vertices, layout))
    rows = np.flatnonzero(table.flagged)
    votes = vote(table.vertices, table.voted, rows, np.zeros_like(rows), 1, params, n)
    outcome = detect_faults_from_analyses(votes, 0)
    removed, history = reference_greedy(*window_table(batches, 0.5), params, n)
    assert list(outcome.fault_list) == removed
    assert [v.counts.tolist() for v in outcome.vote_history] == history
    assert outcome.rounds == len(history)


@st.composite
def vote_cells(draw):
    """(n_sats, vertices, voted, live): a table of rows of k distinct
    satellites (k from 1 to 6), each voting for one of its own, and cells
    that each flag their own rows within their own row prefix (live[c] is
    cell c's rows at the start).  With k = 1 a cell can remove every
    satellite."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(max(k, 2), 12))
    m = draw(st.integers(0, 40))
    keys = draw(arrays(np.float64, (m, n), elements=st.floats(0.0, 1.0)))
    vertices = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :k], axis=1)
    voted = vertices[np.arange(m), draw(arrays(np.intp, m, elements=st.integers(0, k - 1)))]
    n_cells = draw(st.integers(1, 6))
    flags = draw(arrays(np.bool_, (n_cells, m)))
    prefixes = draw(arrays(np.intp, n_cells, elements=st.integers(0, m)))
    return n, vertices, voted, flags & (np.arange(m) < prefixes[:, None])


# Cell 0 ties 2-2 between satellites 0 and 1 and removes 0 (the lower id);
# cell 1 removes all three satellites; cell 2 holds no rows.
VOTE_EXAMPLE = (3, np.array([[0], [0], [1], [1], [2]]), np.array([0, 0, 1, 1, 2]),
                np.array([[1, 1, 1, 1, 0], [1, 0, 0, 1, 1], [0, 0, 0, 0, 0]], dtype=bool))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vote_cells(), st.integers(1, 6), st.floats(0.05, 0.6),
       st.sampled_from(["C", "F", "slice"]), st.randoms(use_true_random=False))
@example(cells=VOTE_EXAMPLE, delta_nf=1, delta_rf=0.05, layout="C",
         order=random.Random(0))
def test_vote_matches_reference_cell_by_cell(cells, delta_nf, delta_rf, layout, order):
    n, vertices, voted, live = cells
    params = DetectorParams(delta_nf=delta_nf, delta_rf=delta_rf)
    at, rows = np.nonzero(live)
    # The vote does not depend on the order of its (row, cell) pairs.
    shuffled = order.sample(range(len(rows)), len(rows))
    votes = vote(laid_out(vertices, layout), voted, rows[shuffled], at[shuffled], len(live),
                 params, n)
    for cell, cell_live in enumerate(live):
        outcome = detect_faults_from_analyses(votes, cell)
        removed, history = reference_greedy(vertices, voted, cell_live, params, n)
        assert list(outcome.fault_list) == removed
        assert [v.counts.tolist() for v in outcome.vote_history] == history
        assert outcome.rounds == len(history)


def test_vote_example_covers_ties_full_removal_and_empty_cells():
    n, vertices, voted, live = VOTE_EXAMPLE
    votes = vote(vertices, voted, *np.nonzero(live)[::-1], len(live),
                 DetectorParams(delta_nf=1, delta_rf=0.05), n)
    outcomes = [detect_faults_from_analyses(votes, cell) for cell in range(len(live))]
    assert outcomes[0].vote_history[0].counts.tolist() == [2, 2, 0]
    assert outcomes[0].fault_list == (0, 1)
    assert sorted(outcomes[1].fault_list) == [0, 1, 2] and outcomes[1].rounds == n
    assert outcomes[2].fault_list == () and outcomes[2].vote_history[0].total == 0


SHARED_EPOCHS = 2
MAX_DL = 3


@functools.lru_cache(maxsize=1)
def campaign_context():
    """An elfo_moon campaign whose schedule fits any fault count and any
    window of up to MAX_DL epochs."""
    config = load_bundled("elfo_moon")
    grid = ExperimentGrid(fault_counts=(config.n_satellites,), magnitudes=(0.0,),
                          thresholds=(ThresholdSpec("x", 1.0),), dls=(MAX_DL,))
    return CampaignContext(config=config, sigma_w=1.0, grid=grid, master_seed=7)


def grid_thresholds():
    """Threshold sets of a campaign grid: all scalar (the analysis decides
    rows by them; 0 lets the screen rule out no clique) or with a predictor
    (every row is solved)."""
    return st.sampled_from([
        (ThresholdSpec("p99", P99),),
        (ThresholdSpec("p99.9", 5.86e-7), ThresholdSpec("p95", 3.58e-7)),
        (ThresholdSpec("zero", 0.0), ThresholdSpec("p99", P99)),
        (ThresholdSpec("p99", P99), ThresholdSpec("predicted", predictor())),
    ])


@st.composite
def trial_grid(draw):
    """(fault counts, magnitudes, other fault sets, thresholds) of a trial:
    unsorted fault counts that include 0 and every satellite, magnitudes
    with a repeat and a 0, fault sets that need not nest with the trial's
    permutation, and the grid's thresholds."""
    n = campaign_context().n_sats
    counts = draw(st.permutations(
        [0, n] + draw(st.lists(st.integers(0, n), min_size=0, max_size=2))))
    drawn = draw(st.lists(st.sampled_from([2.5, 5.0, 20.0]), min_size=1, max_size=2))
    magnitudes = draw(st.permutations(drawn + [drawn[0], 0.0]))
    others = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=0, max_size=2))
    return counts, magnitudes, others, draw(grid_thresholds())


# The paper's grid: fault counts 0-3 by five magnitudes, 20 configs.
PAPER_GRID = ([0, 1, 2, 3], [5.0, 8.0, 10.0, 15.0, 20.0], [],
              (ThresholdSpec("p99.9", 5.86e-7), ThresholdSpec("p95", 3.58e-7)))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), trial_grid())
@example(trial_id=11, grid=PAPER_GRID)
def test_shared_analyses_equal_unshared(trial_id, grid):
    counts, magnitudes, others, thresholds = grid
    ctx = campaign_on(ExperimentGrid(fault_counts=(campaign_context().n_sats,),
                                     magnitudes=(0.0,), thresholds=thresholds, dls=(MAX_DL,)))
    decided = analysis_thresholds(thr.value for thr in thresholds)
    t0_index, perm = ctx.trial_conditions(trial_id)
    fault_sets = [perm[:fc].tolist() for fc in counts] + others
    configs = [FaultConfig(fault_set=s, magnitude=mag) for s in fault_sets for mag in magnitudes]
    with recorded_settles() as masks:
        shared = ctx.epoch_analyses(trial_id, t0_index, configs, SHARED_EPOCHS)
    assert len(shared) == SHARED_EPOCHS
    # The certificate runs once per epoch under the grid's scalar thresholds
    # only, and its analyses then hold no values or vectors.
    assert len(masks) == (0 if decided is None else SHARED_EPOCHS)
    for offset, (rows, source) in enumerate(shared):
        g = t0_index + offset
        entry = ctx.schedule[g]
        assert source.shape == (len(configs), len(entry.cliques))
        if decided is not None:
            assert rows.singular_values is None and rows.left_vectors is None
            assert len(masks[offset]) == len(rows.cliques)
        for faults, index in zip(configs, source):
            got = gathered(rows, index)
            rng = substream(ctx.master_seed, EPOCH_NOISE, trial_id, g)
            rm = measure_ranges(entry.positions, entry.graph, faults, ctx.sigma_w, rng)
            # The reference solves every row.
            want = edm.analyze_clique_batch(rm, entry.cliques)
            assert np.array_equal(got.cliques, want.cliques)
            if decided is None:
                for name in ("singular_values", "left_vectors", "gamma_test",
                             "fault_vertex_local"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                continue
            settled = masks[offset][index]
            assert_same_decisions(got, want, decided, settled)
            # A row is solved or settled, and a settled row that no grid
            # threshold flags votes for vertex 0.
            flagged = (got.gamma_test[:, None] > np.asarray(decided)).any(axis=1)
            assert (got.fault_vertex_local[settled & ~flagged] == 0).all()
            if min(decided) == P99 and not faults.fault_set:
                assert settled.any()


P99 = 4.6e-7


@functools.lru_cache(maxsize=1)
def predictor():
    """An untrained MlpPredictor standardised on one fault-free elfo_moon
    epoch, so that its thresholds straddle that epoch's gammas."""
    ctx = campaign_context()
    entry = ctx.schedule[0]
    rng = substream(0, EPOCH_NOISE, 0, 0)
    rm = measure_ranges(entry.positions, entry.graph, FaultConfig(), ctx.sigma_w, rng)
    batch = edm.analyze_clique_batch(rm, entry.cliques)
    feats = batch_features(batch)
    model = MlpPredictor.initialize(np.random.default_rng(0))
    model.x_mean, model.x_std = feats.mean(axis=0), feats.std(axis=0)
    model.x_std[model.x_std == 0.0] = 1.0
    model.y_mean, model.y_std = np.percentile(batch.gamma_test, 90), batch.gamma_test.std()
    return model


def campaign_on(grid):
    """A copy of campaign_context() that runs grid (DLs of at most MAX_DL);
    the copy shares the schedule."""
    ctx = copy.copy(campaign_context())
    ctx.grid = grid
    return ctx


def reference_cell_outcomes(ctx, trial_id):
    """(fault set, removal order, per-round counts) of each cell of one
    trial in cell order, each cell measured, analysed (every clique solved)
    and voted on alone by reference_greedy."""
    t0_index, perm = ctx.trial_conditions(trial_id)
    for fc, mag, thr, dl in ctx.grid.cells():
        faults = FaultConfig(fault_set=perm[:fc].tolist(), magnitude=mag)
        batches = []
        for g in range(t0_index, t0_index + dl):
            entry = ctx.schedule[g]
            rng = substream(ctx.master_seed, EPOCH_NOISE, trial_id, g)
            rm = measure_ranges(entry.positions, entry.graph, faults, ctx.sigma_w, rng)
            batches.append(edm.analyze_clique_batch(rm, entry.cliques))
        params = dataclasses.replace(ctx.detector, gamma_threshold=thr.value)
        table = table_from_analyses(batches, params)
        yield (perm[:fc], *reference_greedy(table.vertices, table.voted, table.flagged,
                                            params, ctx.n_sats))


def reference_cell_counts(ctx, trial_id):
    """(n_cells, 4) counts of one trial in cell order (reference_cell_outcomes)."""
    n = ctx.n_sats
    rows = []
    for faulty, removed, _ in reference_cell_outcomes(ctx, trial_id):
        truth = np.isin(np.arange(n), faulty)
        detected = np.isin(np.arange(n), removed)
        rows.append([np.sum(truth & detected), np.sum(truth & ~detected),
                     np.sum(~truth & detected), np.sum(~truth & ~detected)])
    return np.array(rows)


def test_campaign_vote_counts_equal_per_cell_reference(monkeypatch):
    """perfbench counts rounds and flagged cliques from each outcome that
    experiment reads through detect_faults_from_analyses: one per cell and
    trial, equal to the per-cell reference's."""
    grid = ExperimentGrid(fault_counts=(0, 2), magnitudes=(5.0, 20.0),
                          thresholds=(ThresholdSpec("p95", 3.58e-7), ThresholdSpec("p99", P99)),
                          dls=(1, MAX_DL))
    ctx = campaign_on(grid)
    read = []

    def counted(votes, cell):
        read.append(detect_faults_from_analyses(votes, cell))
        return read[-1]

    monkeypatch.setattr(experiment, "detect_faults_from_analyses", counted)
    n_trials = 3
    run_campaign(ctx, n_trials=n_trials)
    assert len(read) == grid.n_cells * n_trials
    got = [(outcome.rounds, outcome.vote_history[0].total) for outcome in read]
    want = [(len(history), sum(history[0]))
            for trial_id in range(n_trials)
            for _, _, history in reference_cell_outcomes(ctx, trial_id)]
    # The traced totals, then the same counts cell by cell.
    assert [sum(column) for column in zip(*got)] == [sum(column) for column in zip(*want)]
    assert got == want


@st.composite
def cell_grid(draw):
    """A grid with fault counts that include 0 and every satellite, a zero
    magnitude, unsorted magnitudes and DLs, and drawn thresholds
    (grid_thresholds) in drawn order."""
    n = campaign_context().n_sats
    counts = draw(st.permutations([0, n] + draw(st.lists(st.integers(1, n - 1), max_size=1))))
    drawn = draw(st.lists(st.sampled_from([5.0, 20.0]), min_size=1, max_size=2, unique=True))
    magnitudes = draw(st.permutations(drawn + [0.0]))
    dls = draw(st.lists(st.integers(1, MAX_DL), min_size=1, max_size=3, unique=True))
    thresholds = draw(st.permutations(draw(grid_thresholds())))
    return ExperimentGrid(fault_counts=tuple(counts), magnitudes=tuple(magnitudes),
                          thresholds=tuple(thresholds), dls=tuple(dls))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), cell_grid())
def test_trial_counts_equal_per_cell_reference(trial_id, grid):
    ctx = campaign_on(grid)
    got = _trial_cell_counts(ctx, trial_id)
    assert got.shape == (grid.n_cells, 4)
    assert np.array_equal(got, reference_cell_counts(ctx, trial_id))


def test_trial_counts_with_cliqueless_epochs_equal_reference():
    # On the first 7 elfo_moon satellites, some epochs have no 6-clique.
    config = load_bundled("elfo_moon")
    grid = ExperimentGrid(fault_counts=(0, 1, 2, 3), magnitudes=(5.0, 20.0),
                          thresholds=(ThresholdSpec("p95", 3.58e-7), ThresholdSpec("p99", P99)),
                          dls=(1, 3))
    ctx = CampaignContext(config=dataclasses.replace(config, satellites=config.satellites[:7]),
                          sigma_w=1.0, grid=grid, master_seed=5)
    empty = {g for g, entry in enumerate(ctx.schedule) if not len(entry.cliques)}
    assert len(ctx.schedule) == 722 and len(empty) == 38
    # One trial per pattern of cliqueless epochs in its window.
    trials = {}
    for trial_id in range(200):
        t0_index, _ = ctx.trial_conditions(trial_id)
        trials.setdefault(tuple(g in empty for g in range(t0_index, t0_index + 3)), trial_id)
    assert (True, True, True) in trials and (True, False, False) in trials
    for trial_id in trials.values():
        assert np.array_equal(_trial_cell_counts(ctx, trial_id),
                              reference_cell_counts(ctx, trial_id))


def test_campaign_results_do_not_depend_on_worker_count():
    grid = ExperimentGrid(
        fault_counts=(2, 1), magnitudes=(20.0,),
        thresholds=(ThresholdSpec("p99", P99), ThresholdSpec("predicted", predictor())),
        dls=(3, 1),
    )
    ctx = campaign_on(grid)
    # 2 or 3 processes (at most one per usable CPU) take the 13 trials.
    serial, *parallel = [run_campaign(ctx, n_trials=13, workers=w) for w in (1, 2, 3)]
    assert parallel == [serial, serial]


@settings(deadline=None)
@given(order=st.lists(st.integers(0, 10**6), unique=True, max_size=60).map(tuple),
       n_takers=st.integers(2, 6))
def test_taken_trials_partition_the_order(order, n_takers):
    """Processes that take trials from one shared counter take every trial
    of the order exactly once, each its trials in order.  Threads stand in
    for the processes, more of them than cores, with a short switch
    interval, so that a lost update of the counter would show as a trial
    taken twice or never."""
    taken = multiprocessing.Value("q", 0)
    per_taker = [[] for _ in range(n_takers)]
    ctx = types.SimpleNamespace(grid=types.SimpleNamespace(n_cells=1))

    def counts(ctx, trial_id):
        per_taker[int(threading.current_thread().name)].append(trial_id)
        return np.ones((1, 4), dtype=np.int64)

    totals = [None] * n_takers

    def take(k):
        totals[k] = experiment._take_trials(ctx, order, taken)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with unittest.mock.patch.object(experiment, "_trial_cell_counts", counts):
            threads = [threading.Thread(target=take, args=(k,), name=str(k))
                       for k in range(n_takers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(t for trials in per_taker for t in trials) == sorted(order)
    position = {t: i for i, t in enumerate(order)}
    for trials in per_taker:
        assert [position[t] for t in trials] == sorted(position[t] for t in trials)
    assert sum(total.sum() for total in totals) == 4 * len(order)


def reference_training_set(config, sigma_w, n_geometries, n_noise, seed, step):
    """build_training_set one geometry at a time: one analysis of its
    clique's true ranges, and one spectrum of its own noise draws."""
    schedule = build_clique_schedule(config, sampling_times(step, config.period))
    counts = np.array([len(entry.cliques) for entry in schedule])
    starts = np.cumsum(counts) - counts
    chosen = substream(seed, TRAINING, 0).integers(int(counts.sum()), size=n_geometries)
    entry_of = np.searchsorted(starts, chosen, side="right") - 1
    feats = np.empty((n_geometries, FEATURE_DIM))
    targets = np.empty(n_geometries)
    for g, (e, pool_idx) in enumerate(zip(entry_of, chosen)):
        entry = schedule[e]
        clique = entry.cliques[pool_idx - starts[e]]
        exact = true_ranges(entry.positions, entry.graph)
        feats[g] = batch_features(edm.analyze_clique_batch(RangeMatrix(r=exact), clique[None]))[0]
        sub = exact[np.ix_(clique, clique)]
        w = pair_noise(substream(seed, TRAINING, 1, g), CLIQUE_SIZE, sigma_w, size=(n_noise,))
        s = edm.spectrum(edm.geometric_center((sub + w) ** 2))
        targets[g] = np.percentile(edm.gamma_from_spectrum(s), TAIL_PERCENTILE)
    return feats, targets


# Up to 18 geometries cross block boundaries at 2,000 draws (4 geometries
# per block) and fill part of one block at 300, 301 and 457; the coarse step
# puts several geometries on one schedule entry, the fine one spreads them
# out.  2,000 draws (the CLI's
# default) make the percentile read the top 7, so the screen keeps 8.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SCHEDULE_CONFIGS)), st.integers(0, 2**32 - 1),
       st.integers(1, 12), st.integers(1, 6), st.sampled_from([300, 301, 457, 2000]),
       st.sampled_from([0.0, 0.5, 1.0, 5.0, 50.0]), st.sampled_from([600.0, 7200.0]))
def test_training_set_equals_per_geometry_reference(name, seed, n, extra, n_noise, sigma_w,
                                                    step):
    config = SCHEDULE_CONFIGS[name]
    feats, targets = build_training_set(config, sigma_w, n + extra, n_noise, seed, step)
    ref_feats, ref_targets = reference_training_set(config, sigma_w, n + extra, n_noise,
                                                    seed, step)
    assert np.array_equal(feats, ref_feats)
    assert np.array_equal(targets, ref_targets)
    head_feats, head_targets = build_training_set(config, sigma_w, n, n_noise, seed, step)
    assert np.array_equal(head_feats, feats[:n])
    assert np.array_equal(head_targets, targets[:n])


# The drawn cases above hold at most 18 geometries, one partial block at 300
# draws.  40 geometries at 300 draws fill one block of 32 and part of a
# second; on the coarse step many of them share a schedule entry.
@pytest.mark.parametrize("name, seed, sigma_w", [("elfo_moon", 5, 1.0), ("walker_mars", 9, 50.0)])
def test_training_set_across_a_block_boundary_equals_reference(name, seed, sigma_w):
    config = SCHEDULE_CONFIGS[name]
    n_geometries, n_noise, step = 40, 300, 7200.0
    assert BLOCK_DRAWS // n_noise < n_geometries < 2 * (BLOCK_DRAWS // n_noise)
    feats, targets = build_training_set(config, sigma_w, n_geometries, n_noise, seed, step)
    ref_feats, ref_targets = reference_training_set(config, sigma_w, n_geometries, n_noise,
                                                    seed, step)
    assert np.array_equal(feats, ref_feats)
    assert np.array_equal(targets, ref_targets)


@functools.lru_cache(maxsize=None)
def coarse_schedule(name):
    """The entries with cliques of a 600 s grid over one period of a bundled config."""
    config = SCHEDULE_CONFIGS[name]
    schedule = build_clique_schedule(config, sampling_times(600.0, config.period))
    return [entry for entry in schedule if len(entry.cliques)]


def exact_gamma(d):
    """gamma_test of every draw of a (c, n, 15) stack of squared pair ranges,
    each mirrored to its 6x6 matrix and solved as build_training_set solves it."""
    full = mirror_pairs(d.reshape(-1, d.shape[-1]), CLIQUE_SIZE)
    return edm.gamma_from_spectrum(edm.spectrum(edm.geometric_center(full))).reshape(d.shape[:2])


def screen_inputs(exact, cliques, draws):
    """(bound_basis, squared noisy pair ranges) of draws (c, n, 15 pair_draws)
    on the cliques of one true-range matrix."""
    analysis = edm.analyze_clique_batch(RangeMatrix(r=exact), cliques)
    basis = edm.bound_basis(analysis.left_vectors[:, :, :3])
    i, j = np.triu_indices(CLIQUE_SIZE, 1)
    return basis, (exact[cliques[:, i], cliques[:, j]][:, None] + draws) ** 2


def bounds_of(exact, cliques, draws):
    """_gamma_bounds of draws (c, n, 15 pair_draws) on the cliques of one
    true-range matrix, with the squared noisy pair ranges they bound."""
    basis, d = screen_inputs(exact, cliques, draws)
    return edm._gamma_bounds(basis, d), d


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SCHEDULE_CONFIGS)), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.5, 1.0, 5.0, 50.0, 500.0]))
def test_gamma_bounds_contain_gamma(name, seed, sigma_w):
    rng = np.random.default_rng(seed)
    schedule = coarse_schedule(name)
    entry = schedule[rng.integers(len(schedule))]
    cliques = entry.cliques[rng.integers(len(entry.cliques), size=4)]
    draws = pair_draws(rng, CLIQUE_SIZE, sigma_w, size=(4, 500))
    (lo, hi), d = bounds_of(true_ranges(entry.positions, entry.graph), cliques, draws)
    gamma = exact_gamma(d)
    assert (0.0 <= lo).all()
    assert (lo <= gamma).all()
    assert (gamma <= hi).all()


# Blocks as build_training_set stacks them: BLOCK_DRAWS draws, never fewer
# than one geometry.  At 10 nm of noise the draws differ by
# about the rounding of their squared ranges, so a screen without its
# rounding allowance (tau) leaves out draws of the top ranks there.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SCHEDULE_CONFIGS)), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-8, 1.0, 50.0]), st.sampled_from([300, 457, 2000]), st.data())
def test_top_gammas_equal_solving_every_draw(name, seed, sigma_w, n, data):
    rng = np.random.default_rng(seed)
    schedule = coarse_schedule(name)
    entry = schedule[rng.integers(len(schedule))]
    c = max(1, BLOCK_DRAWS // n)
    cliques = entry.cliques[rng.integers(len(entry.cliques), size=c)]
    draws = pair_draws(rng, CLIQUE_SIZE, sigma_w, size=(c, n))
    basis, d = screen_inputs(true_ranges(entry.positions, entry.graph), cliques, draws)
    keep = data.draw(st.integers(1, n))
    got = edm.top_gammas(basis, d, keep)
    assert got.shape == (c, n) and not np.isnan(got).any()
    # Every draw of the top keep ranks is solved, with its unscreened bits.
    top = slice(n - keep, None)
    assert np.array_equal(np.sort(got, axis=1)[:, top], np.sort(exact_gamma(d), axis=1)[:, top])


# Six satellites 20 degrees apart on one circular equatorial orbit: they see
# each other at every epoch, and their one 6-clique is coplanar (s3 = 0).
COPLANAR = config_from_dict({
    "body": {"name": "Moon", "mu_km3_s2": 4902.8, "radius_km": 1737.4},
    "satellites": [{"a_km": 17374.0, "e": 0.0, "i_deg": 0.0, "raan_deg": 0.0, "argp_deg": 0.0,
                    "M0_deg": 20.0 * k} for k in range(CLIQUE_SIZE)],
})


@pytest.mark.parametrize("sigma_w", [0.0, 1e-8, 1.0, 50.0])
def test_coplanar_clique_solves_every_draw(sigma_w):
    entry = build_clique_schedule(COPLANAR, [0.0])[0]
    assert entry.cliques.tolist() == [list(range(CLIQUE_SIZE))]
    exact = true_ranges(entry.positions, entry.graph)
    s = edm.analyze_clique_batch(RangeMatrix(r=exact), entry.cliques).singular_values[0]
    assert s[2] < 1e-12 * s[0]
    draws = pair_draws(substream(3, TRAINING, 1, 0), CLIQUE_SIZE, sigma_w, size=(1, 2000))
    (lo, hi), d = bounds_of(exact, entry.cliques, draws)
    gamma = exact_gamma(d)
    assert (lo <= gamma).all() and (gamma <= hi).all()
    # No draw is ruled out of the top ranks, so the screen solves them all.
    assert (lo == 0.0).all()
    if sigma_w == 0.0:
        assert np.isinf(hi).all()
    feats, targets = build_training_set(COPLANAR, sigma_w, 3, 457, seed=3, step=7200.0)
    ref_feats, ref_targets = reference_training_set(COPLANAR, sigma_w, 3, 457, 3, 7200.0)
    assert np.array_equal(feats, ref_feats)
    assert np.array_equal(targets, ref_targets)


# ---------------------------------------------------------------------------
# The certificate: edm._settle and analyze_clique_batch(..., thresholds=...).
# ---------------------------------------------------------------------------

SIGMAS = [0.0, 0.5, 1.0, 5.0, 50.0, 500.0]


@st.composite
def screened_epoch(draw):
    """(ranges, cliques) of one epoch: a schedule epoch of a bundled config
    or the coplanar clique, with pair noise of a drawn sigma_w and a bias of
    0 to 1,000 m on 0 to 3 satellites."""
    if draw(st.booleans()):
        schedule = coarse_schedule(draw(st.sampled_from(sorted(SCHEDULE_CONFIGS))))
        entry = schedule[draw(st.integers(0, len(schedule) - 1))]
    else:
        entry = build_clique_schedule(COPLANAR, [draw(st.floats(0.0, 86400.0))])[0]
    n = len(entry.positions)
    faults = FaultConfig(fault_set=draw(st.sets(st.integers(0, n - 1), max_size=3)),
                         magnitude=draw(st.floats(0.0, 1000.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rm = measure_ranges(entry.positions, entry.graph, faults, draw(st.sampled_from(SIGMAS)), rng)
    return rm, entry.cliques


# A backward error that LAPACK's symmetric eigensolvers stay within, as a
# multiple of eps |G|_F: the eigenvalues they return are those of some G + E
# with |E| this small, so the bound must hold for every such G + E.
BACKWARD_ERROR = 100.0 * np.finfo(float).eps


def solved_gammas(g, seed=0):
    """gamma_test of every matrix of a centred stack, from eigh (the vote's
    kernel) and from spectrum (the values-only kernel), and from spectrum of
    g plus a random symmetric perturbation of |.|_F = BACKWARD_ERROR |g|_F."""
    e = np.random.default_rng(seed).standard_normal(g.shape)
    e += e.swapaxes(1, 2)
    scale = BACKWARD_ERROR * np.linalg.norm(g, axis=(1, 2)) / np.linalg.norm(e, axis=(1, 2))
    e *= scale[:, None, None]
    return (edm._solve(g, vectors=True)[2], edm._solve(g, vectors=False)[2],
            edm._solve(g + e, vectors=False)[2])


FLOORS = [-1e-6, 0.0, 1e-9, 3.58e-7, P99, 1e-5, 1e-3]


def threshold_tuples():
    """1 to 4 thresholds: the reference percentiles, 0, the extremes of
    FLOORS (-1e-6 and 1e-3) and log-uniform values from 1e-9 to 1e-4."""
    return st.lists(st.one_of(st.sampled_from([-1e-6, 0.0, 3.58e-7, 4.57e-7, 5.86e-7, P99,
                                               1e-3]),
                              st.floats(-9.0, -4.0).map(lambda e: 10.0**e)),
                    min_size=1, max_size=4).map(tuple)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(screened_epoch(), st.sampled_from(FLOORS),
       st.lists(st.sampled_from([0.0, 1e-10, 1e-7, 1e-4]), min_size=1, max_size=3))
def test_screen_solves_what_a_threshold_reads(epoch, floor, above):
    rm, cliques = epoch
    thresholds = tuple(floor + a for a in above) + (floor,)
    assert_same_decisions(edm.analyze_clique_batch(rm, cliques, thresholds=thresholds),
                          edm.analyze_clique_batch(rm, cliques), thresholds,
                          settled_rows(rm, cliques, thresholds))
    # The vote of a flagged row is read, so thresholds imply vectors.
    with pytest.raises(ValueError, match="needs vectors"):
        edm.analyze_clique_batch(rm, cliques, vectors=False, thresholds=thresholds)


def test_other_clique_sizes_refused_under_thresholds():
    """The certificate is derived for 6-cliques, so an analysis under
    thresholds refuses the k-cliques of 9 random points 1,000 km apart for
    k = 5, 7, 8 and 9, which an analysis without thresholds takes."""
    points = 1e6 * np.random.default_rng(0).standard_normal((9, 3))
    rm = RangeMatrix(r=np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2)))
    for k in (5, 7, 8, 9):
        cliques = np.array(list(itertools.combinations(range(9), k)), dtype=np.intp)
        assert len(edm.analyze_clique_batch(rm, cliques).gamma_test) == len(cliques)
        message = (r"^an analysis under thresholds needs vectors \(it reads the vote\) and "
                   f"6-cliques; got vectors=True and {k}-cliques$")
        with pytest.raises(ValueError, match=message):
            edm.analyze_clique_batch(rm, cliques, thresholds=(P99,))


@st.composite
def certified_epoch(draw):
    """(ranges, cliques) of one epoch, as screened_epoch draws it, but with
    sigma_w down to 10 nm and biases up to 1e6 m."""
    if draw(st.booleans()):
        schedule = coarse_schedule(draw(st.sampled_from(sorted(SCHEDULE_CONFIGS))))
        entry = schedule[draw(st.integers(0, len(schedule) - 1))]
    else:
        entry = build_clique_schedule(COPLANAR, [draw(st.floats(0.0, 86400.0))])[0]
    n = len(entry.positions)
    magnitude = draw(st.one_of(st.floats(0.0, 1000.0), st.sampled_from([1e4, 1e5, 1e6])))
    faults = FaultConfig(fault_set=draw(st.sets(st.integers(0, n - 1), max_size=3)),
                         magnitude=magnitude)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma_w = draw(st.sampled_from(SIGMAS + [1e-8]))
    return measure_ranges(entry.positions, entry.graph, faults, sigma_w, rng), entry.cliques


def assert_settled_rows_decided(d, thresholds):
    """Run the certificate on an (m, 15) stack of squared pair ranges, and
    check every row it settles against the eigensolvers on its centred 6x6
    matrix: its flag at each threshold is that of eigh's, eigvalsh's and a
    perturbed eigvalsh's gamma_test (solved_gammas), a flagged row's vote
    is eigh's and an unflagged row's is 0."""
    thresholds = np.asarray(thresholds, dtype=float)
    settled, gamma, vote = edm._settle(d, thresholds)
    g = edm.geometric_center(mirror_pairs(d, CLIQUE_SIZE))
    flags = gamma[:, None] > thresholds
    for want in solved_gammas(g):
        assert np.array_equal(flags[settled], want[settled, None] > thresholds)
    u = edm._solve(g, vectors=True)[1]
    flagged = settled & flags.any(axis=1)
    assert np.array_equal(vote[flagged], np.abs(u[flagged, :, 3]).argmax(axis=1))
    assert (vote[settled & ~flagged] == 0).all()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(certified_epoch(), threshold_tuples())
def test_certificate_decides_as_eigh(epoch, thresholds):
    rm, cliques = epoch
    got = edm.analyze_clique_batch(rm, cliques, thresholds=thresholds)
    assert_same_decisions(got, edm.analyze_clique_batch(rm, cliques), thresholds,
                          settled_rows(rm, cliques, thresholds))
    assert_settled_rows_decided(edm.squared_pairs(rm, cliques), thresholds)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SCHEDULE_CONFIGS)), st.integers(0, 2**32 - 1),
       st.sampled_from(SIGMAS + [1e-8]),
       st.one_of(st.floats(0.0, 1000.0), st.sampled_from([0.0, 5.0, 20.0, 1e3, 1e6])),
       threshold_tuples())
def test_certificate_decides_with_coincident_satellites(name, seed, sigma_w, magnitude,
                                                       thresholds):
    """Two satellites of each clique at one point (their range is noise
    alone), the ranges of a third biased by 0 to 1,000 m or by 1e6 m."""
    rng = np.random.default_rng(seed)
    schedule = coarse_schedule(name)
    entry = schedule[rng.integers(len(schedule))]
    points = entry.positions[entry.cliques[rng.integers(len(entry.cliques), size=8)]]
    points[:, 1] = points[:, 0]
    r = np.sqrt(((points[:, :, None] - points[:, None, :]) ** 2).sum(axis=3))
    r += pair_noise(rng, CLIQUE_SIZE, sigma_w, size=(8,))
    r[:, 2, :] += magnitude
    r[:, :, 2] += magnitude
    i, j = pair_rows(CLIQUE_SIZE)
    assert_settled_rows_decided(r[:, i, j] ** 2, thresholds)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(certified_epoch())
def test_folded_matrix_is_the_centred_matrix_in_h(epoch):
    """The M that the certificate folds from a clique's squared pair ranges
    is H^T G H of the G that eigh solves, and H M H^T is that G, each to
    the allowance _FOLD_GAP |D|_F that the edm module docstring derives."""
    rm, cliques = epoch
    d = edm.squared_pairs(rm, cliques)
    m = edm._nystrom_basis(d)[0]
    g = edm.geometric_center(edm.build_edm(rm, cliques))
    h = edm._COMPLEMENT
    allowance = edm._FOLD_GAP * np.linalg.norm(edm.build_edm(rm, cliques), axis=(1, 2))
    assert (np.linalg.norm(m - h.T @ g @ h, axis=(1, 2)) <= allowance).all()
    assert (np.linalg.norm(g - h @ m @ h.T, axis=(1, 2)) <= allowance).all()


@KERNEL
@given(screened_epoch(), st.data())
def test_asymmetric_pair_refused_under_thresholds(epoch, data):
    """A range matrix whose two triangles differ at a drawn pair, by one ulp
    or more, is refused under thresholds, naming that pair."""
    rm, cliques = epoch
    n = len(rm.r)
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                     .filter(lambda p: p[0] != p[1]))
    if data.draw(st.booleans()):
        rm.r[i, j] = np.nextafter(rm.r[i, j], np.inf)
    else:
        rm.r[i, j] += data.draw(st.sampled_from([-1.0, 1e-3, 5.0, 1e6]))
    a, b = min(i, j), max(i, j)
    message = (f"an analysis under thresholds reads each pair once, so the range matrix "
               f"must be symmetric; r[{a}, {b}] = {float(rm.r[a, b])!r} but "
               f"r[{b}, {a}] = {float(rm.r[b, a])!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        edm.analyze_clique_batch(rm, cliques, thresholds=(P99,))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.integers(1, MAX_DL), st.sets(st.integers(0, 11), max_size=3),
       st.sampled_from([0.0, 5.0, 20.0, 200.0]), st.sampled_from([-1e-7, 0.0, 3.58e-7, P99, 1e-5]),
       st.integers(1, 12), st.floats(0.05, 0.6))
def test_screened_detection_equals_unscreened(seed, dl, faulty, magnitude, threshold,
                                              delta_nf, delta_rf):
    ctx = campaign_context()
    t0 = seed % ctx.n_start_epochs
    window = ctx.schedule[t0:t0 + dl]
    faults = FaultConfig(fault_set=faulty, magnitude=magnitude)
    ranges = [measure_ranges(entry.positions, entry.graph, faults, ctx.sigma_w,
                             substream(seed, EPOCH_NOISE, 0, k))
              for k, entry in enumerate(window)]
    params = DetectorParams(delta_nf=delta_nf, delta_rf=delta_rf, gamma_threshold=threshold)
    got = detect_faults([entry.cliques for entry in window], ranges, params)
    batches = [edm.analyze_clique_batch(rm, entry.cliques)
               for entry, rm in zip(window, ranges)]
    want = vote_alone(table_from_analyses(batches, params), params, ctx.n_sats)
    assert got.fault_list == want.fault_list
    assert [v.counts.tolist() for v in got.vote_history] == \
        [v.counts.tolist() for v in want.vote_history]
