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

The greedy loop must give the removal order and per-round vote counts of a
reference that rebuilds its live set from every removed satellite each
round.

A held clique schedule (build_clique_schedule, one listing per distinct
adjacency) must equal the per-epoch stream (iter_schedule) entry by entry
on any time grid, repeated and unsorted epochs included.

A campaign trial's shared analyses (CampaignContext.epoch_analyses, which
analyses each distinct clique measurement once) must equal, field for
field, analysing every fault config on its own measured ranges.  A trial's
cell counts (which flag each analysed row once per threshold and take
each detection length as a row prefix) must equal a reference that
measures, analyses and detects every cell on its own, and a campaign's
results must not depend on its worker count.
"""

import copy
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satfd import edm
from satfd.cliques import build_clique_schedule, iter_schedule, list_k_cliques
from satfd.constellation import load_bundled, propagate
from satfd.calibration import MlpPredictor, batch_features
from satfd.detector import DetectorParams, detect_faults_from_analyses, table_from_analyses
from satfd.experiment import (
    CampaignContext,
    ExperimentGrid,
    ThresholdSpec,
    _trial_cell_counts,
    run_campaign,
)
from satfd.linkgraph import VisibilityGraph, build_visibility_graph
from satfd.ranging import FaultConfig, RangeMatrix, measure_ranges
from satfd.seeds import EPOCH_NOISE, substream

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
        raise edm.MissingEdgeError(f"clique {cliques[missing.argmax()].tolist()} has unmeasured pairs")
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


def reference_greedy(batches, params, n_sats):
    """Removal order and per-round counts, re-masking every removed satellite."""
    vertices = np.concatenate([b.cliques for b in batches])
    voted = np.concatenate([b.fault_vertex_global() for b in batches])
    flagged = np.concatenate([b.gamma_test > params.gamma_threshold for b in batches])
    removed, history = [], []
    for _ in range(n_sats):
        alive = flagged.copy()
        for s in removed:
            alive &= ~np.any(vertices == s, axis=1)
        counts = np.bincount(voted[alive], minlength=n_sats)
        history.append(counts.tolist())
        total = counts.sum()
        if total < params.delta_nf or counts.max() / total < params.delta_rf:
            break
        removed.append(int(np.argmax(counts)))
    return removed, history


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(flag_window(), st.integers(1, 6), st.floats(0.05, 0.6))
def test_greedy_matches_remasking_reference(window, delta_nf, delta_rf):
    n, batches = window
    params = DetectorParams(delta_nf=delta_nf, delta_rf=delta_rf, gamma_threshold=0.5)
    outcome = detect_faults_from_analyses(table_from_analyses(batches, params), params, n)
    removed, history = reference_greedy(batches, params, n)
    assert list(outcome.fault_list) == removed
    assert [v.counts.tolist() for v in outcome.vote_history] == history
    assert outcome.rounds == len(history)


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


def gathered(rows, index):
    """The analysis whose i-th row is row index[i] of rows."""
    return edm.BatchAnalysis(*(getattr(rows, f.name)[index] for f in dataclasses.fields(rows)))


@st.composite
def trial_grid(draw):
    """(fault counts, magnitudes, other fault sets) of a trial: unsorted fault
    counts that include 0 and every satellite, magnitudes with a repeat and
    a 0, and fault sets that need not nest with the trial's permutation."""
    n = campaign_context().n_sats
    counts = draw(st.permutations(
        [0, n] + draw(st.lists(st.integers(0, n), min_size=0, max_size=2))))
    drawn = draw(st.lists(st.sampled_from([2.5, 5.0, 20.0]), min_size=1, max_size=2))
    magnitudes = draw(st.permutations(drawn + [drawn[0], 0.0]))
    others = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=0, max_size=2))
    return counts, magnitudes, others


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), trial_grid())
def test_shared_analyses_equal_unshared(trial_id, grid):
    ctx = campaign_context()
    t0_index, perm = ctx.trial_conditions(trial_id)
    counts, magnitudes, others = grid
    fault_sets = [perm[:fc].tolist() for fc in counts] + others
    configs = [FaultConfig(fault_set=s, magnitude=mag) for s in fault_sets for mag in magnitudes]
    shared = ctx.epoch_analyses(trial_id, t0_index, configs, SHARED_EPOCHS)
    assert len(shared) == SHARED_EPOCHS
    for offset, (rows, source) in enumerate(shared):
        g = t0_index + offset
        entry = ctx.schedule[g]
        assert source.shape == (len(configs), len(entry.cliques))
        for faults, index in zip(configs, source):
            got = gathered(rows, index)
            rng = substream(ctx.master_seed, EPOCH_NOISE, trial_id, g)
            rm = measure_ranges(entry.positions, entry.graph, faults, ctx.sigma_w, rng)
            want = edm.analyze_clique_batch(rm, entry.cliques)
            assert np.array_equal(got.cliques, want.cliques)
            assert np.array_equal(got.singular_values, want.singular_values)
            assert np.array_equal(got.left_vectors, want.left_vectors)
            assert np.array_equal(got.gamma_test, want.gamma_test)
            assert np.array_equal(got.fault_vertex_local, want.fault_vertex_local)


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


def reference_cell_counts(ctx, trial_id):
    """(n_cells, 4) counts of one trial in cell order, each cell measured,
    analysed and detected on its own."""
    t0_index, perm = ctx.trial_conditions(trial_id)
    n = ctx.n_sats
    rows = []
    for fc, mag, thr, dl in ctx.grid.cells():
        faults = FaultConfig(fault_set=perm[:fc].tolist(), magnitude=mag)
        batches = []
        for g in range(t0_index, t0_index + dl):
            entry = ctx.schedule[g]
            rng = substream(ctx.master_seed, EPOCH_NOISE, trial_id, g)
            rm = measure_ranges(entry.positions, entry.graph, faults, ctx.sigma_w, rng)
            batches.append(edm.analyze_clique_batch(rm, entry.cliques))
        params = dataclasses.replace(ctx.detector, gamma_threshold=thr.value)
        outcome = detect_faults_from_analyses(table_from_analyses(batches, params), params, n)
        truth = np.isin(np.arange(n), perm[:fc])
        detected = np.isin(np.arange(n), outcome.fault_list)
        rows.append([np.sum(truth & detected), np.sum(truth & ~detected),
                     np.sum(~truth & detected), np.sum(~truth & ~detected)])
    return np.array(rows)


@st.composite
def cell_grid(draw):
    """A grid with fault counts that include 0 and every satellite, a zero
    and a repeated magnitude, unsorted and repeated DLs, and a scalar and a
    predictor threshold in drawn order."""
    n = campaign_context().n_sats
    counts = draw(st.permutations([0, n] + draw(st.lists(st.integers(1, n - 1), max_size=1))))
    drawn = draw(st.sampled_from([5.0, 20.0]))
    magnitudes = draw(st.permutations([drawn, drawn, 0.0]))
    dls = draw(st.lists(st.integers(1, MAX_DL), min_size=1, max_size=2))
    dls = draw(st.permutations(dls + [dls[0]]))
    thresholds = draw(st.permutations(
        [ThresholdSpec("p99", P99), ThresholdSpec("predicted", predictor())]))
    return ExperimentGrid(fault_counts=tuple(counts), magnitudes=tuple(magnitudes),
                          thresholds=tuple(thresholds), dls=tuple(dls))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), cell_grid())
def test_trial_counts_equal_per_cell_reference(trial_id, grid):
    ctx = campaign_on(grid)
    got = _trial_cell_counts(ctx, trial_id)
    assert got.shape == (grid.n_cells, 4)
    assert np.array_equal(got, reference_cell_counts(ctx, trial_id))


def test_campaign_results_do_not_depend_on_worker_count():
    grid = ExperimentGrid(
        fault_counts=(2, 1), magnitudes=(20.0,),
        thresholds=(ThresholdSpec("p99", P99), ThresholdSpec("predicted", predictor())),
        dls=(3, 1, 3),
    )
    ctx = campaign_on(grid)
    # With 2 or 3 workers, 13 trials run in chunks of 2 plus one of 1.
    serial, *parallel = [run_campaign(ctx, n_trials=13, workers=w) for w in (1, 2, 3)]
    assert parallel == [serial, serial]
