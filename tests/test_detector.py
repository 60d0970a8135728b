import math

import numpy as np
import pytest

from satfd import edm
from satfd.cliques import list_k_cliques
from satfd.constellation import load_bundled, propagate
from satfd.detector import (
    DetectorParams,
    VoteState,
    detect_faults,
    detect_faults_from_analyses,
    table_from_analyses,
)
from satfd.linkgraph import build_visibility_graph
from satfd.ranging import FaultConfig, RangeMatrix, measure_ranges
from satfd.seeds import substream

P99 = 4.6e-7
P999 = 5.9e-7


def elfo_epoch(t=0.0, fault_set=frozenset(), magnitude=0.0, sigma=1.0, seed=0):
    config = load_bundled("elfo_moon")
    ps = propagate(config, t)
    graph = build_visibility_graph(ps, config.body.radius)
    cliques = list_k_cliques(graph, 6)
    rm = measure_ranges(ps, graph, FaultConfig(fault_set, magnitude), sigma,
                        substream(seed, 0))
    return cliques, rm


def first_round(clique_lists, ranges, params):
    """Votes and removal of the first greedy round (None: it terminated)."""
    out = detect_faults(clique_lists, ranges, params)
    return out.vote_history[0], out.fault_list[0] if out.fault_list else None


class TestDetectionRound:
    def test_no_fault_terminates(self):
        # at the 99.9 percentile threshold, ~0.1% of ~463 cliques flag;
        # far below delta_nf = 10
        cliques, rm = elfo_epoch(sigma=1.0, seed=3)
        votes, removal = first_round([cliques], [rm],
                                     DetectorParams(gamma_threshold=P999))
        assert removal is None
        assert votes.total < 10

    def test_fault_removed(self):
        cliques, rm = elfo_epoch(t=3600.0, fault_set={5}, magnitude=20.0, seed=4)
        votes, removal = first_round([cliques], [rm],
                                     DetectorParams(gamma_threshold=P99))
        assert removal == 5
        assert votes.ratios[5] == votes.counts[5] / votes.total

    def test_delta_nf_boundary(self):
        # exactly delta_nf - 1 flagged subgraphs must terminate
        cliques, rm = elfo_epoch(fault_set={3}, magnitude=20.0, seed=4)
        batch = edm.analyze_clique_batch(rm, cliques)
        flagged = int((batch.gamma_test > P99).sum())
        assert flagged > 10
        at_boundary = DetectorParams(gamma_threshold=P99, delta_nf=flagged + 1)
        _, removal = first_round([cliques], [rm], at_boundary)
        assert removal is None
        at_count = DetectorParams(gamma_threshold=P99, delta_nf=flagged)
        _, removal = first_round([cliques], [rm], at_count)
        assert removal is not None

    def test_delta_rf_requires_concentration(self):
        cliques, rm = elfo_epoch(fault_set={3}, magnitude=20.0, seed=4)
        diffuse = DetectorParams(gamma_threshold=P99, delta_rf=0.99)
        votes, removal = first_round([cliques], [rm], diffuse)
        assert removal is None
        assert votes.total >= 10  # terminated by the ratio rule, not the count

    def test_empty_window_terminates(self):
        # one epoch whose predicted topology holds no cliques at all
        no_cliques = np.zeros((0, 6), dtype=np.intp)
        votes, removal = first_round([no_cliques], [RangeMatrix(r=np.zeros((12, 12)))],
                                     DetectorParams(gamma_threshold=0.0))
        assert removal is None
        assert votes.total == 0

    def test_vote_total_bounded_by_cliques(self):
        cliques, rm = elfo_epoch(fault_set={1, 5}, magnitude=20.0, seed=9)
        votes, _ = first_round([cliques], [rm],
                               DetectorParams(gamma_threshold=0.0))
        assert votes.total <= len(cliques)
        assert (votes.counts >= 0).all()

    def test_threshold_monotonicity(self):
        cliques, rm = elfo_epoch(fault_set={3}, magnitude=10.0, seed=12)
        totals = []
        for thr in (1e-7, 3e-7, 5e-7, 1e-6):
            votes, _ = first_round([cliques], [rm],
                                   DetectorParams(gamma_threshold=thr))
            totals.append(votes.total)
        assert totals == sorted(totals, reverse=True)


class TestDetectFaults:
    def test_no_fault_empty_list(self):
        cliques, rm = elfo_epoch(sigma=1.0, seed=21)
        out = detect_faults([cliques], [rm], DetectorParams(gamma_threshold=P999))
        assert out.fault_list == ()
        assert out.rounds == 1

    def test_single_fault_recovered(self):
        cliques, rm = elfo_epoch(fault_set={5}, magnitude=20.0, seed=22)
        out = detect_faults([cliques], [rm], DetectorParams(gamma_threshold=P99))
        assert out.fault_list == (5,)
        assert out.rounds == 2
        assert len(out.vote_history) == 2

    def test_two_faults_recovered_greedily(self):
        config = load_bundled("elfo_moon")
        windows = []
        for k in range(3):
            t = 9000.0 + 60.0 * k
            ps = propagate(config, t)
            graph = build_visibility_graph(ps, config.body.radius)
            rm = measure_ranges(ps, graph, FaultConfig({2, 9}, 20.0), 1.0,
                                substream(7, k))
            windows.append((list_k_cliques(graph, 6), rm))
        out = detect_faults([w[0] for w in windows], [w[1] for w in windows],
                            DetectorParams(gamma_threshold=P99))
        assert set(out.fault_list) == {2, 9}

    def test_rounds_bounded_by_satellite_count(self):
        cliques, rm = elfo_epoch(fault_set={0, 4, 8}, magnitude=50.0, seed=2)
        out = detect_faults([cliques], [rm],
                            DetectorParams(gamma_threshold=0.0, delta_nf=1,
                                           delta_rf=0.01))
        assert out.rounds <= 12
        assert len(set(out.fault_list)) == len(out.fault_list)

    def test_empty_window_rejected(self):
        params = DetectorParams(gamma_threshold=P99)
        with pytest.raises(ValueError, match="at least one epoch"):
            detect_faults([], [], params)
        with pytest.raises(ValueError, match="at least one epoch"):
            table_from_analyses([], params)

    def test_determinism(self):
        cliques, rm = elfo_epoch(fault_set={5}, magnitude=8.0, seed=30)
        params = DetectorParams(gamma_threshold=P99)
        a = detect_faults([cliques], [rm], params)
        b = detect_faults([cliques], [rm], params)
        assert a.fault_list == b.fault_list
        assert all(
            np.array_equal(x.counts, y.counts)
            for x, y in zip(a.vote_history, b.vote_history)
        )

    def test_unmonitored_satellite_never_flagged(self):
        # a satellite with no self-containing cliques cannot be voted for:
        # keep satellite 0 connected to only 3 others
        rng = np.random.default_rng(40)
        pos = rng.uniform(8.0, 10.0, size=(9, 3)) * 1e6
        graph = build_visibility_graph(pos, 1.0)  # tiny body: complete graph
        adj = graph.adjacency.copy()
        adj[0, 4:] = adj[4:, 0] = False
        graph = type(graph)(adjacency=adj)
        cliques = list_k_cliques(graph, 6)
        assert all(0 not in c for c in cliques)
        rm = measure_ranges(pos, graph, FaultConfig({0}, 100.0), 1.0, substream(1, 1))
        out = detect_faults([cliques], [rm],
                            DetectorParams(gamma_threshold=0.0, delta_nf=1,
                                           delta_rf=0.01))
        assert 0 not in out.fault_list


class TestScalarThresholds:
    @pytest.mark.parametrize("thr", [np.float32(P99), np.float64(P99), np.int64(0)])
    def test_numpy_scalars_match_python_float(self, thr):
        cliques, rm = elfo_epoch(t=3600.0, fault_set={5}, magnitude=20.0, seed=4)
        as_numpy = detect_faults([cliques], [rm], DetectorParams(gamma_threshold=thr))
        as_float = detect_faults([cliques], [rm],
                                 DetectorParams(gamma_threshold=float(thr)))
        assert as_numpy.fault_list == as_float.fault_list
        assert as_numpy.rounds == as_float.rounds


class TestPredictedThreshold:
    class StubPredictor:
        def __init__(self, value):
            self.value = value

        def predict(self, features):
            assert features.shape[1] == 21
            return np.full(features.shape[0], self.value)

    def test_huge_predicted_threshold_terminates(self):
        cliques, rm = elfo_epoch(fault_set={3}, magnitude=20.0, seed=4)
        params = DetectorParams(gamma_threshold=self.StubPredictor(1.0))
        out = detect_faults([cliques], [rm], params)
        assert out.fault_list == ()

    def test_tiny_predicted_threshold_flags_fault(self):
        cliques, rm = elfo_epoch(t=3600.0, fault_set={5}, magnitude=20.0, seed=4)
        params = DetectorParams(gamma_threshold=self.StubPredictor(P99))
        out = detect_faults([cliques], [rm], params)
        assert 5 in out.fault_list


class TestFromAnalyses:
    def test_matches_direct_path(self):
        cliques, rm = elfo_epoch(fault_set={6}, magnitude=15.0, seed=17)
        params = DetectorParams(gamma_threshold=P99)
        direct = detect_faults([cliques], [rm], params)
        batches = [edm.analyze_clique_batch(rm, cliques)]
        cached = detect_faults_from_analyses(table_from_analyses(batches, params), params, 12)
        assert direct.fault_list == cached.fault_list
        assert direct.rounds == cached.rounds


class TestParamsValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            DetectorParams(delta_nf=0)
        with pytest.raises(ValueError):
            DetectorParams(delta_rf=1.0)

    @pytest.mark.parametrize("thr", [math.nan, math.inf, -math.inf, np.float64("nan")],
                             ids=["nan", "inf", "-inf", "numpy-nan"])
    def test_non_finite_scalar_threshold_refused(self, thr):
        with pytest.raises(ValueError, match="^gamma_threshold must be finite"):
            DetectorParams(gamma_threshold=thr)

    def test_vote_state_ratios(self):
        votes = VoteState(counts=np.array([2, 0, 2]))
        assert votes.total == 4
        assert votes.ratios.tolist() == [0.5, 0.0, 0.5]
        empty = VoteState(counts=np.zeros(3, dtype=int))
        assert np.isnan(empty.ratios).all()
