import contextlib
import dataclasses
import re
import unittest.mock
import warnings

import numpy as np
import pytest

from satfd import edm
from satfd.detector import DetectorParams, detect_faults
from satfd.cliques import list_k_cliques
from satfd.constellation import load_bundled, propagate
from satfd.linkgraph import build_visibility_graph
from satfd.ranging import FaultConfig, RangeMatrix, measure_ranges
from satfd.seeds import substream
from test_acceptance import numerical_rank


def faulted_ranges(points, fault_ids=(), magnitude=0.0, sigma=0.0, rng=None):
    """Range matrix r_ij = |x_i - x_j| + w_ij + f_i + f_j on a complete graph."""
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    r = np.sqrt((diff**2).sum(axis=2))
    if sigma > 0.0:
        w = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        w[iu] = rng.standard_normal(iu[0].size) * sigma
        r = r + w + w.T
    bias = np.zeros(n)
    bias[list(fault_ids)] = magnitude
    r = r + bias[:, None] + bias[None, :]
    np.fill_diagonal(r, 0.0)
    return RangeMatrix(r=r)


def whole(n):
    """The clique of all n vertices, as a batch of one."""
    return np.arange(n)[None]


def assert_same_decisions(got, want, thresholds, settled):
    """got, an analysis of 6-cliques under thresholds whose rows settled
    marks the certificate settled (edm._settle), against want, the same
    rows analysed with every row solved: got has no values or vectors, a
    row got's eigensolver solved has want's gamma_test and vote bits, every
    row is flagged by the same thresholds, and a flagged row votes for the
    same vertex."""
    assert np.array_equal(got.cliques, want.cliques)
    assert got.singular_values is None and got.left_vectors is None
    for name in ("gamma_test", "fault_vertex_local"):
        assert np.array_equal(getattr(got, name)[~settled], getattr(want, name)[~settled])
    flags = got.gamma_test[:, None] > np.asarray(thresholds)
    assert np.array_equal(flags, want.gamma_test[:, None] > np.asarray(thresholds))
    flagged = flags.any(axis=1)
    assert np.array_equal(got.fault_vertex_local[flagged], want.fault_vertex_local[flagged])


def settled_rows(ranges, cliques, thresholds):
    """The rows of cliques that the certificate settles under thresholds
    (edm._settle, on the squared pair ranges analyze_clique_batch gathers)."""
    return edm._settle(edm.squared_pairs(ranges, cliques), thresholds)[0]


@contextlib.contextmanager
def recorded_settles():
    """A list that gets the settled mask of every edm._settle call made
    inside the block, in call order."""
    masks = []
    settle = edm._settle

    def recording(d, thresholds):
        out = settle(d, thresholds)
        masks.append(out[0])
        return out

    with unittest.mock.patch.object(edm, "_settle", recording):
        yield masks


def gathered(rows, index):
    """The analysis whose i-th row is row index[i] of rows (index may be a
    slice); a field that is None in rows is None in it."""
    return edm.BatchAnalysis(*(None if value is None else value[index] for value in (
        getattr(rows, f.name) for f in dataclasses.fields(rows))))


def analysis_of(points, **kw):
    """Analysis of the clique of all points: a batch of one."""
    rm = faulted_ranges(points, **kw)
    return edm.analyze_clique_batch(rm, whole(points.shape[0]))


def reference_analysis(rm, clique):
    """Per-matrix numpy reference: (singular values, left vectors, gamma, argmax |u4|).

    G is symmetric, so its singular values are |lambda| of one eigh and its
    left singular vectors are the eigenvectors, both ordered by |lambda|
    descending (stable on ties).
    """
    r = rm.r[np.ix_(clique, clique)]
    d = r**2
    np.fill_diagonal(d, 0.0)
    n = len(clique)
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    lam, vecs = np.linalg.eigh(-0.5 * (j @ d @ j))
    order = np.argsort(-np.abs(lam), kind="stable")
    s, u = np.abs(lam[order]), vecs[:, order]
    return s, u, (s[3] + s[4]) / s[0], int(np.argmax(np.abs(u[:, 3])))


class TestBuildEdm:
    def test_unit_square_in_3d(self):
        square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        rm = faulted_ranges(square)
        d = edm.build_edm(rm, whole(4))[0]
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 2] == pytest.approx(2.0)
        assert np.array_equal(d.diagonal(), np.zeros(4))

    def test_matches_squared_distances(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(5.0, 9.0, size=(6, 3)) * 1e6
        rm = faulted_ranges(pts)
        d = edm.build_edm(rm, whole(6))[0]
        diff = pts[:, None, :] - pts[None, :, :]
        want = (diff**2).sum(axis=2)
        np.fill_diagonal(want, 0.0)
        assert np.allclose(d, want, rtol=1e-12)

    def test_missing_edge_raises(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(5.0, 9.0, size=(6, 3))
        rm = faulted_ranges(pts)
        rm.r[1, 4] = rm.r[4, 1] = 0.0  # simulate a stale schedule
        with pytest.raises(edm.MissingEdgeError):
            edm.build_edm(rm, whole(6))

    def test_single_point_degenerate(self):
        rm = RangeMatrix(r=np.zeros((1, 1)))
        assert np.array_equal(edm.build_edm(rm, whole(1)), np.zeros((1, 1, 1)))

    @pytest.mark.parametrize("thresholds", [None, (4.6e-7,)], ids=["None", "4.6e-07"])
    def test_overflowing_square_refused_without_warning(self, thresholds):
        pts = np.random.default_rng(2).uniform(5.0, 9.0, size=(6, 3)) * 1e6
        rm = faulted_ranges(pts, fault_ids=(2,), magnitude=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "clique [0, 1, 2, 3, 4, 5] has a range whose square is not finite")):
                edm.analyze_clique_batch(rm, whole(6), thresholds=thresholds)

    def test_nan_pair_names_the_first_clique_that_reads_it(self):
        pts = np.random.default_rng(2).uniform(5.0, 9.0, size=(7, 3)) * 1e6
        rm = faulted_ranges(pts)
        rm.r[2, 6] = rm.r[6, 2] = np.nan
        cliques = np.array([[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6], [0, 2, 3, 4, 5, 6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "clique [1, 2, 3, 4, 5, 6] has a range whose square is not finite")):
                edm.build_edm(rm, cliques)
        # An unmeasured pair is reported as such, before any non-finite one.
        rm.r[0, 1] = rm.r[1, 0] = 0.0
        with pytest.raises(edm.MissingEdgeError, match=re.escape("clique [0, 1, 2, 3, 4, 5]")):
            edm.build_edm(rm, cliques[::-1])

    def test_nan_range_refused_by_detect_faults(self):
        config = load_bundled("elfo_moon")
        ps = propagate(config, 3600.0)
        graph = build_visibility_graph(ps, config.body.radius)
        cliques = list_k_cliques(graph, 6)
        rm = measure_ranges(ps, graph, FaultConfig(), 1.0, substream(5, 1))
        i, j = cliques[0, :2]
        rm.r[i, j] = rm.r[j, i] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"clique {cliques[0].tolist()} has a range whose square is not finite")):
                detect_faults([cliques], [rm], DetectorParams(gamma_threshold=4.6e-7))


class TestGeometricCenter:
    def test_zero_in_zero_out(self):
        g = edm.geometric_center(np.zeros((4, 4)))
        assert np.array_equal(g, np.zeros((4, 4)))

    def test_noiseless_rank_three(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pts = rng.uniform(0.0, 1.0, size=(6, 3))
            rm = faulted_ranges(pts)
            g = edm.geometric_center(edm.build_edm(rm, whole(6)))[0]
            s = np.linalg.svd(g, compute_uv=False)
            assert numerical_rank(s, 1e-10) == 3

    def test_collinear_rank_one(self):
        pts = np.outer(np.arange(1.0, 7.0), np.array([1.0, 2.0, -0.5]))
        rm = faulted_ranges(pts)
        g = edm.geometric_center(edm.build_edm(rm, whole(6)))[0]
        s = np.linalg.svd(g, compute_uv=False)
        assert numerical_rank(s, 1e-10) == 1

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pts = rng.uniform(0.0, 1.0, size=(7, 3))
            g = edm.geometric_center(edm.build_edm(faulted_ranges(pts), whole(7)))[0]
            scale = np.abs(g).max()
            assert np.abs(g.sum(axis=0)).max() <= 1e-9 * scale
            assert np.abs(g.sum(axis=1)).max() <= 1e-9 * scale


class TestAnalyze:
    def test_noiseless_gamma_negligible(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(2.0, 3.0, size=(6, 3)) * 1e6
        assert analysis_of(pts).gamma_test[0] <= 1e-10

    def test_fault_raises_gamma_above_noise_floor(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.0, 1.0, size=(6, 3))
        noisy = analysis_of(pts, sigma=1e-6, rng=np.random.default_rng(3))
        faulted = analysis_of(pts, fault_ids=[2], magnitude=1e-3,
                              sigma=1e-6, rng=np.random.default_rng(3))
        assert 0.0 < noisy.gamma_test[0] < faulted.gamma_test[0]

    def test_small_matrix_rejected(self):
        rm = faulted_ranges(np.random.default_rng(0).uniform(0.0, 1.0, size=(4, 3)))
        with pytest.raises(ValueError):
            edm.analyze_clique_batch(rm, whole(4))

    def test_descending_order_and_orthonormal(self):
        rng = np.random.default_rng(77)
        pts = rng.uniform(0.0, 1.0, size=(6, 3))
        a = analysis_of(pts, fault_ids=[1], magnitude=0.1)
        u = a.left_vectors[0]
        assert u.shape == (6, 4)  # u1-u4
        assert np.all(np.diff(a.singular_values[0]) <= 0.0)
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-9)

    def test_gamma_from_spectrum(self):
        s = np.array([[4.0, 3.0, 2.0, 1.0, 0.5, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert edm.gamma_from_spectrum(s).tolist() == [1.5 / 4.0, 0.0]
        assert edm.gamma_from_spectrum(s[0]) == 1.5 / 4.0


class TestFaultVertexIndex:
    def test_recovers_fault_in_elfo_subgraph(self):
        # Attribution accuracy is geometry-dependent (near-coplanar healthy
        # satellites can hide the fault entirely); this subgraph is one of
        # the well-conditioned ones, where the majority vote is decisive.
        config = load_bundled("elfo_moon")
        ps = propagate(config, 7200.0)
        graph = build_visibility_graph(ps, config.body.radius)
        clique = np.array([[0, 1, 2, 3, 5, 9]])
        assert (list_k_cliques(graph, 6) == clique).all(axis=1).any()
        local_fault = 2
        faults = FaultConfig(fault_set={int(clique[0, local_fault])}, magnitude=20.0)
        hits = 0
        for draw in range(1000):
            rm = measure_ranges(ps, graph, faults, 1.0, substream(99, draw))
            a = edm.analyze_clique_batch(rm, clique)
            if a.fault_vertex_local[0] == local_fault:
                hits += 1
        assert hits > 500


class TestNumericalRank:
    def test_clear_gap(self):
        assert numerical_rank(np.array([5.0, 4.0, 3.0, 5e-14]), 1e-10) == 3

    def test_all_zero(self):
        assert numerical_rank(np.zeros(6), 1e-10) == 0

    def test_against_dense_rank_oracle(self):
        # noiseless faulted GCEDM, n=12, m=2 -> rank 7 = min(d + 2m, n - 1)
        rng = np.random.default_rng(14)
        pts = rng.uniform(0.0, 1.0, size=(12, 3))
        rm = faulted_ranges(pts, fault_ids=[3, 8], magnitude=0.2)
        g = edm.geometric_center(edm.build_edm(rm, whole(12)))[0]
        s = np.linalg.svd(g, compute_uv=False)
        assert numerical_rank(s, 1e-10) == 7
        assert np.linalg.matrix_rank(g, tol=1e-10 * s[0]) == 7


class TestRankLaws:
    """Rank bounds for faulted distance matrices (d = 3 throughout)."""

    def sweep(self, sigma=0.0):
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(200):
            n = int(rng.integers(6, 13))
            m = int(rng.integers(0, 4))
            pts = rng.uniform(0.0, 1.0, size=(n, 3))
            fault_ids = rng.choice(n, size=m, replace=False)
            noise_rng = np.random.default_rng(rng.integers(2**32)) if sigma else None
            rm = faulted_ranges(pts, fault_ids=fault_ids, magnitude=0.3,
                                sigma=sigma, rng=noise_rng)
            cases.append((n, m, rm))
        return cases

    def test_edm_rank_bound_and_equality(self):
        exact = 0
        cases = self.sweep()
        for n, m, rm in cases:
            d = edm.build_edm(rm, whole(n))[0]
            s = np.linalg.svd(d, compute_uv=False)
            rank = numerical_rank(s, 1e-10)
            bound = min(3 + 2 + 2 * m, n)
            assert rank <= bound
            exact += rank == bound
        assert exact >= 0.95 * len(cases)

    def test_gcedm_rank_bound_and_equality(self):
        exact = eligible = 0
        cases = self.sweep()
        for n, m, rm in cases:
            g = edm.geometric_center(edm.build_edm(rm, whole(n)))[0]
            s = np.linalg.svd(g, compute_uv=False)
            rank = numerical_rank(s, 1e-10)
            bound = min(3 + 2 * m, n - 1)
            assert rank <= bound
            if 2 * m < n - 1:
                eligible += 1
                exact += rank == bound
        assert exact >= 0.95 * eligible

    def test_noisy_gcedm_full_centered_rank(self):
        for n, m, rm in self.sweep(sigma=1e-4):
            g = edm.geometric_center(edm.build_edm(rm, whole(n)))[0]
            s = np.linalg.svd(g, compute_uv=False)
            assert numerical_rank(s, 1e-12) == n - 1


class TestInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 1.0, size=(6, 3))
        rm = faulted_ranges(pts, fault_ids=[4], magnitude=0.05)
        base = edm.analyze_clique_batch(rm, whole(6))
        for _ in range(10):
            perm = rng.permutation(6)
            rperm = RangeMatrix(r=rm.r[np.ix_(perm, perm)])
            other = edm.analyze_clique_batch(rperm, whole(6))
            assert other.gamma_test[0] == pytest.approx(base.gamma_test[0], rel=1e-12)
            # u4 entries follow the relabeling (up to overall SVD sign)
            assert np.abs(other.left_vectors[0, :, 3]) == pytest.approx(
                np.abs(base.left_vectors[0, perm, 3]), abs=1e-9
            )

    def test_scale_covariance(self):
        rng = np.random.default_rng(16)
        pts = rng.uniform(0.0, 1.0, size=(6, 3))
        rm = faulted_ranges(pts, fault_ids=[0], magnitude=0.02)
        base = edm.analyze_clique_batch(rm, whole(6))
        for c in (2.0, 1e3, 3.7e-2):
            scaled = RangeMatrix(r=c * rm.r)
            other = edm.analyze_clique_batch(scaled, whole(6))
            # the last singular value is structurally zero (centering), so
            # compare on the scale of the leading one
            assert other.singular_values[0] == pytest.approx(
                c**2 * base.singular_values[0], abs=1e-12 * c**2 * base.singular_values[0, 0]
            )
            assert other.gamma_test[0] == pytest.approx(base.gamma_test[0], rel=1e-12)

    def test_coplanar_nonfault_geometry_hides_fault(self):
        # Documented negative example: when the five healthy satellites are
        # coplanar, a fault on the sixth barely moves the mean statistic,
        # unlike the generic 3D case.  No detectability is asserted.
        rng = np.random.default_rng(31)
        plane = np.c_[rng.uniform(0, 1, (5, 2)), np.zeros(5)]
        coplanar = np.vstack([plane, [0.4, 0.4, 0.8]])
        generic = rng.uniform(0.0, 1.0, size=(6, 3))

        def mean_gamma(pts, magnitude):
            out = []
            for draw in range(200):
                nrng = np.random.default_rng(1000 + draw)
                rm = faulted_ranges(pts, fault_ids=[5], magnitude=magnitude,
                                    sigma=1e-6, rng=nrng)
                a = edm.analyze_clique_batch(rm, whole(6))
                out.append(a.gamma_test[0])
            return np.mean(out)

        lift_coplanar = mean_gamma(coplanar, 1e-3) / mean_gamma(coplanar, 0.0)
        lift_generic = mean_gamma(generic, 1e-3) / mean_gamma(generic, 0.0)
        assert lift_coplanar < lift_generic / 5.0


class TestSignCanonicalization:
    def test_leading_entry_positive(self):
        u = np.array([[0.1, -0.9], [-0.8, 0.2]])
        fixed = edm.canonicalize_signs(u)
        assert fixed[1, 0] > 0.0 and fixed[0, 1] > 0.0

    def test_flip_invariant(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((6, 3))
        flipped = u * np.array([-1.0, 1.0, -1.0])
        assert np.array_equal(edm.canonicalize_signs(u), edm.canonicalize_signs(flipped))

    def test_zero_column_untouched(self):
        u = np.zeros((4, 2))
        u[:, 0] = [0.0, -1.0, 0.5, 0.0]
        fixed = edm.canonicalize_signs(u)
        assert np.array_equal(fixed[:, 1], np.zeros(4))
        assert fixed[1, 0] == 1.0


def block_diagonal(*blocks):
    """The range matrix with blocks on its diagonal and zeros elsewhere."""
    n = sum(len(b) for b in blocks)
    r = np.zeros((n, n))
    start = 0
    for b in blocks:
        r[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return RangeMatrix(r=r)


TREND_THRESHOLDS = (3.58e-7, 4.57e-7, 5.86e-7)


class TestBlockDiagonalStack:
    """Analysing the cliques of several range matrices in one call, on their
    block-diagonal stack, gives each row the bits of its own block alone;
    under thresholds, each row the eigensolver solves has its gamma_test
    and vote bits, and every row the decisions of its block alone."""

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("thresholds", [None, TREND_THRESHOLDS], ids=["None", "3.58e-07"])
    def test_rows_equal_their_own_block(self, thresholds, vectors):
        config = load_bundled("elfo_moon")
        ps = propagate(config, 300.0)
        graph = build_visibility_graph(ps, config.body.radius)
        cliques = list_k_cliques(graph, 6)
        n = len(ps)
        first = measure_ranges(ps, graph, FaultConfig({2}, 15.0), 1.0, substream(5, 1))
        second = measure_ranges(ps, graph, FaultConfig({2, 7}, 5.0), 1.0, substream(5, 2))
        parts = [(first, cliques[::2]), (second, cliques[1::3])]
        ranges = block_diagonal(first.r, second.r)
        ids = np.concatenate([cliques[::2], cliques[1::3] + n])
        if thresholds is not None and not vectors:
            # A flagged row's vote is read, so thresholds imply vectors.
            with pytest.raises(ValueError, match="needs vectors"):
                edm.analyze_clique_batch(ranges, ids, vectors=False, thresholds=thresholds)
            return
        stacked = edm.analyze_clique_batch(ranges, ids, vectors=vectors, thresholds=thresholds)
        start = 0
        for rm, part in parts:
            rows = slice(start, start + len(part))
            start += len(part)
            got = dataclasses.replace(gathered(stacked, rows), cliques=part)
            want = edm.analyze_clique_batch(rm, part, vectors=vectors)
            if thresholds is None:
                for name in ("singular_values", "left_vectors", "gamma_test",
                             "fault_vertex_local"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                continue
            settled = settled_rows(ranges, ids, thresholds)[rows]
            assert_same_decisions(got, want, thresholds, settled)
            # The certificate settles flagged and unflagged rows, and a
            # settled row that no threshold flags votes for vertex 0.
            flagged = (got.gamma_test[:, None] > np.asarray(thresholds)).any(axis=1)
            assert (settled & flagged).any() and (settled & ~flagged).any()
            assert (got.fault_vertex_local[settled & ~flagged] == 0).all()

    @pytest.mark.parametrize("thresholds", [None, TREND_THRESHOLDS], ids=["None", "3.58e-07"])
    def test_analyze_blocks_rows_equal_their_own_block(self, thresholds):
        config = load_bundled("elfo_moon")
        ps = propagate(config, 300.0)
        graph = build_visibility_graph(ps, config.body.radius)
        cliques = list_k_cliques(graph, 6)
        parts = [
            (measure_ranges(ps, graph, FaultConfig({2}, 15.0), 1.0, substream(5, 1)), cliques[::2]),
            (measure_ranges(ps, graph, FaultConfig(), 1.0, substream(5, 2)), cliques[:0]),
            (measure_ranges(ps, graph, FaultConfig({2, 7}, 5.0), 1.0, substream(5, 3)),
             cliques[1::3]),
        ]
        got = edm.analyze_blocks([rm.r for rm, _ in parts], [part for _, part in parts],
                                 thresholds=thresholds)
        # The satellite ids are restored, and the rows follow the blocks in order.
        assert np.array_equal(got.cliques, np.concatenate([part for _, part in parts]))
        want = [edm.analyze_clique_batch(rm, part, thresholds=thresholds) for rm, part in parts]
        # Under thresholds there are no values or vectors, here or alone.
        if thresholds is not None:
            assert got.singular_values is None and got.left_vectors is None
        # Every row, solved or not, has the bits of its block alone.
        for field in ("singular_values", "gamma_test", "left_vectors", "fault_vertex_local"):
            rows = [getattr(w, field) for w in want]
            if getattr(got, field) is None:
                assert all(row is None for row in rows)
            else:
                assert np.array_equal(getattr(got, field), np.concatenate(rows))


def elfo_epoch():
    """(ranges, 6-cliques) of elfo_moon at t = 300 s, sigma_w 1 m, satellite
    2 biased by 15 m."""
    config = load_bundled("elfo_moon")
    ps = propagate(config, 300.0)
    graph = build_visibility_graph(ps, config.body.radius)
    rm = measure_ranges(ps, graph, FaultConfig({2}, 15.0), 1.0, substream(5, 1))
    return rm, list_k_cliques(graph, 6)


class TestCertificateInput:
    """The certificate reads each clique's 15 squared pair ranges in the
    fixed basis H of the complement of the all-ones vector."""

    def test_basis_is_orthonormal_and_centred(self):
        h = edm._COMPLEMENT.astype(np.longdouble)
        eps = np.finfo(float).eps
        assert h.shape == (6, 5)
        assert np.linalg.norm(h.T @ h - np.eye(5)) <= 2.0 * eps
        assert np.linalg.norm(h.T @ np.ones(6)) <= 2.0 * eps

    def test_pairs_are_the_upper_triangles_of_build_edm(self):
        rm, cliques = elfo_epoch()
        i, j = np.triu_indices(6, 1)
        assert np.array_equal(edm.squared_pairs(rm, cliques), edm.build_edm(rm, cliques)[:, i, j])

    def test_settled_rows_form_no_6x6_matrix(self):
        """Under thresholds no build_edm runs, and geometric_center and eigh
        see only the rows the certificate leaves, among them the rows whose
        own gamma_test is a threshold."""
        rm, cliques = elfo_epoch()
        want = edm.analyze_clique_batch(rm, cliques)
        thresholds = tuple(want.gamma_test[:3])
        centred = []
        center = edm.geometric_center

        def recording(d):
            centred.append(len(d))
            return center(d)

        with unittest.mock.patch.object(edm, "build_edm", side_effect=AssertionError), \
                unittest.mock.patch.object(edm, "geometric_center", recording):
            got = edm.analyze_clique_batch(rm, cliques, thresholds=thresholds)
        settled = settled_rows(rm, cliques, thresholds)
        assert not settled[:3].any() and sum(centred) == (~settled).sum()
        assert_same_decisions(got, want, thresholds, settled)

    def test_asymmetric_ranges_refused_under_thresholds(self):
        rm, cliques = elfo_epoch()
        rm.r[7, 3] = np.nextafter(rm.r[3, 7], np.inf)
        rm.r[9, 8] = rm.r[8, 9] + 1.0
        message = (f"an analysis under thresholds reads each pair once, so the range matrix "
                   f"must be symmetric; r[3, 7] = {float(rm.r[3, 7])!r} but "
                   f"r[7, 3] = {float(rm.r[7, 3])!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            edm.analyze_clique_batch(rm, cliques, thresholds=TREND_THRESHOLDS)

    def test_asymmetric_ranges_taken_without_thresholds(self):
        """build_edm and the unthresholded analysis read both triangles."""
        rm, cliques = elfo_epoch()
        a, b = cliques[0, :2]
        rm.r[b, a] += 3.0
        d = edm.build_edm(rm, cliques)
        assert d[0, 1, 0] == rm.r[b, a] ** 2 != d[0, 0, 1]
        for vectors in (True, False):
            got = edm.analyze_clique_batch(rm, cliques, vectors=vectors)
            want = edm._solve(edm.geometric_center(d), vectors)
            assert np.array_equal(got.gamma_test, want[2])
            assert np.array_equal(got.singular_values, want[0])


class TestBatchMatchesSingle:
    def test_equivalence_on_elfo_epoch(self):
        config = load_bundled("elfo_moon")
        ps = propagate(config, 300.0)
        graph = build_visibility_graph(ps, config.body.radius)
        cliques = list_k_cliques(graph, 6)[:50]
        rm = measure_ranges(ps, graph, FaultConfig({2}, 15.0), 1.0, substream(5, 1))
        batch = edm.analyze_clique_batch(rm, cliques)
        for row, clique in enumerate(cliques):
            s, _, gamma, vertex = reference_analysis(rm, clique)
            assert batch.singular_values[row] == pytest.approx(s, rel=1e-12, abs=1e-15)
            assert batch.gamma_test[row] == pytest.approx(gamma, rel=1e-12)
            assert batch.fault_vertex_local[row] == vertex

    def test_empty_batch(self):
        rm = RangeMatrix(r=np.zeros((6, 6)))
        batch = edm.analyze_clique_batch(rm, np.zeros((0, 6), dtype=np.intp))
        assert batch.gamma_test.size == 0

    def test_global_vertex_mapping(self):
        # Among cliques whose statistic is actually elevated (how the
        # detector uses attribution), the vote concentrates on the fault.
        config = load_bundled("elfo_moon")
        ps = propagate(config, 300.0)
        graph = build_visibility_graph(ps, config.body.radius)
        cliques = list_k_cliques(graph, 6)
        cliques = cliques[(cliques == 7).any(axis=1)]
        rm = measure_ranges(ps, graph, FaultConfig({7}, 50.0), 0.5, substream(5, 2))
        batch = edm.analyze_clique_batch(rm, cliques)
        flagged = batch.gamma_test > 4.6e-7
        assert flagged.sum() > 20
        voted = cliques[np.arange(len(cliques)), batch.fault_vertex_local]
        votes = np.bincount(voted[flagged], minlength=12)
        assert votes.argmax() == 7
        assert votes[7] / votes.sum() > 0.5
