import math

import numpy as np
import pytest

from satfd.linkgraph import VisibilityGraph, build_visibility_graph
from satfd.ranging import (
    FaultConfig, RangeMatrix, add_bias, measure_ranges, mirror_pairs, pair_draws, pair_noise,
    true_ranges,
)
from satfd.seeds import substream


def cluster(seed=0, n=6):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(8.0, 10.0, size=(n, 3)) * 1e6
    return pos, build_visibility_graph(pos, 1.7374e6)


def true_distances(ps):
    diff = ps[:, None, :] - ps[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


class TestMeasureRanges:
    def test_zero_noise_zero_fault_exact(self):
        ps, graph = cluster()
        rm = measure_ranges(ps, graph, FaultConfig(), 0.0, substream(0, 9))
        dist = true_distances(ps)
        assert np.allclose(rm.r[graph.adjacency], dist[graph.adjacency], rtol=1e-15)

    def test_both_endpoints_faulty_doubles_bias(self):
        ps, graph = cluster()
        faults = FaultConfig(fault_set={0, 1}, magnitude=10.0)
        rm = measure_ranges(ps, graph, faults, 0.0, substream(0, 9))
        dist = true_distances(ps)
        assert rm.r[0, 1] == pytest.approx(dist[0, 1] + 20.0)
        assert rm.r[0, 2] == pytest.approx(dist[0, 2] + 10.0)
        assert rm.r[2, 3] == pytest.approx(dist[2, 3])

    def test_noise_statistics_every_edge(self):
        # 1,516 draws of the 66 edges of a 12-satellite cluster: 100,056 residuals
        ps, graph = cluster(n=12)
        edges = np.nonzero(np.triu(graph.adjacency, k=1))
        assert edges[0].size == 66
        n_draws = math.ceil(100_000 / edges[0].size)
        rng = substream(42, 9)
        residuals = np.array([
            measure_ranges(ps, graph, FaultConfig(), 1.0, rng).r[edges]
            for _ in range(n_draws)
        ]) - true_distances(ps)[edges]
        # 3 sigma / sqrt(N) ~ 0.0095 for the pooled mean; similar for the std
        assert abs(residuals.mean()) < 0.02
        assert abs(residuals.std(ddof=1) - 1.0) < 0.02
        # each edge on its own, so that one bad edge cannot hide in the pool
        bound = 5.0 / math.sqrt(n_draws)
        assert np.abs(residuals.mean(axis=0)).max() < bound
        assert np.abs(residuals.std(axis=0, ddof=1) - 1.0).max() < bound

    def test_symmetry_exact(self):
        ps, graph = cluster(3)
        rm = measure_ranges(ps, graph, FaultConfig({2}, 5.0), 1.0, substream(1, 9))
        assert np.array_equal(rm.r, rm.r.T)
        assert np.array_equal(rm.r.diagonal(), np.zeros(len(rm.r)))

    def test_bias_superposition_exact(self):
        # same stream with and without faults differs by exactly f_i + f_j
        ps, graph = cluster(5)
        faults = FaultConfig(fault_set={1, 4}, magnitude=7.5)
        with_fault = measure_ranges(ps, graph, faults, 1.0, substream(8, 9))
        without = measure_ranges(ps, graph, FaultConfig(), 1.0, substream(8, 9))
        bias = np.zeros(6)
        bias[[1, 4]] = 7.5
        expected = np.where(graph.adjacency, bias[:, None] + bias[None, :], 0.0)
        assert np.array_equal(with_fault.r - without.r, expected)

    def test_biasing_one_draw_equals_measuring_with_faults(self):
        # a campaign draws an epoch's noise once and biases it per fault config
        ps, graph = cluster(5)
        faults = FaultConfig(fault_set={1, 4}, magnitude=7.5)
        clean = measure_ranges(ps, graph, FaultConfig(), 1.0, substream(8, 9))
        direct = measure_ranges(ps, graph, faults, 1.0, substream(8, 9))
        assert np.array_equal(add_bias(clean, graph, faults).r, direct.r)
        assert np.array_equal(add_bias(clean, graph, FaultConfig()).r, clean.r)

    def test_fixed_seed_bit_identical(self):
        ps, graph = cluster(6)
        a = measure_ranges(ps, graph, FaultConfig(), 1.0, substream(3, 1, 2))
        b = measure_ranges(ps, graph, FaultConfig(), 1.0, substream(3, 1, 2))
        assert np.array_equal(a.r, b.r)

    def test_rejects_negative_sigma(self):
        ps, graph = cluster()
        with pytest.raises(ValueError):
            measure_ranges(ps, graph, FaultConfig(), -1.0, substream(0, 9))

    @pytest.mark.parametrize("sigma_w", [math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, sigma_w):
        ps, graph = cluster()
        with pytest.raises(ValueError, match="^sigma_w must be >= 0 and finite"):
            measure_ranges(ps, graph, FaultConfig(), sigma_w, substream(0, 9))

    def test_fault_config_rejects_negative_id(self):
        # A negative id would index from the end: -1 would bias the last satellite.
        with pytest.raises(ValueError, match=r"^fault satellite ids must be >= 0, got -1$"):
            FaultConfig(fault_set={-1}, magnitude=5.0)

    def test_rejects_fault_id_beyond_the_satellites(self):
        ps, graph = cluster(n=12)
        with pytest.raises(ValueError, match=r"^fault satellite ids must be in 0 \.\. 11, got 99$"):
            measure_ranges(ps, graph, FaultConfig(fault_set={99}, magnitude=5.0), 1.0,
                           substream(0, 9))

    def test_is_true_ranges_plus_pair_noise_then_bias(self):
        ps, graph = cluster(4)
        faults = FaultConfig(fault_set={2}, magnitude=3.0)
        noise = pair_noise(substream(5, 9), len(ps), 1.5)
        want = add_bias(RangeMatrix(true_ranges(ps, graph) + noise), graph, faults)
        assert np.array_equal(measure_ranges(ps, graph, faults, 1.5, substream(5, 9)).r, want.r)


class TestRangeModel:
    def test_true_ranges_zero_off_the_visible_edges(self):
        ps, graph = cluster(2)
        adjacency = graph.adjacency.copy()
        adjacency[0, 3] = adjacency[3, 0] = False
        r = true_ranges(ps, VisibilityGraph(adjacency=adjacency))
        assert np.array_equal(r, np.where(adjacency, true_distances(ps), 0.0))
        assert r[0, 3] == 0.0 and r[0, 1] > 0.0

    def test_true_ranges_stack_equals_each_slice(self):
        # Leading axes broadcast against one graph or a stack of graphs, and
        # each slice keeps the bits of its own call.
        clusters = [cluster(seed, n=7) for seed in range(4)]
        ps = np.stack([pos for pos, _ in clusters])
        adjacency = np.stack([graph.adjacency for _, graph in clusters])
        adjacency[1, 2, 5] = adjacency[1, 5, 2] = False
        stacked = true_ranges(ps, VisibilityGraph(adjacency=adjacency))
        shared = true_ranges(ps, VisibilityGraph(adjacency=adjacency[1]))
        assert stacked.shape == shared.shape == (4, 7, 7)
        for t in range(4):
            assert np.array_equal(stacked[t],
                                  true_ranges(ps[t], VisibilityGraph(adjacency=adjacency[t])))
            assert np.array_equal(shared[t],
                                  true_ranges(ps[t], VisibilityGraph(adjacency=adjacency[1])))

    def test_pair_noise_one_row_major_draw_per_pair(self):
        n, sigma_w = 5, 2.0
        w = pair_noise(substream(7, 9), n, sigma_w)
        iu = np.triu_indices(n, k=1)
        assert np.array_equal(w[iu], substream(7, 9).standard_normal(iu[0].size) * sigma_w)
        assert np.array_equal(w, w.T)
        assert np.array_equal(w.diagonal(), np.zeros(n))

    def test_pair_noise_stack_is_consecutive_draws(self):
        stack = pair_noise(substream(7, 9), 6, 1.0, size=(3,))
        rng = substream(7, 9)
        assert stack.shape == (3, 6, 6)
        for w in stack:
            assert np.array_equal(w, pair_noise(rng, 6, 1.0))

    @pytest.mark.parametrize("sigma_w", [0.0, 1e-8, 2.0])
    @pytest.mark.parametrize("n, size", [(5, ()), (6, (300,)), (12, ()), (6, (2, 3))])
    def test_pair_noise_is_the_mirror_of_pair_draws(self, n, size, sigma_w):
        noise_rng, draws_rng = substream(7, 9), substream(7, 9)
        w = pair_noise(noise_rng, n, sigma_w, size=size)
        draws = pair_draws(draws_rng, n, sigma_w, size=size)
        assert draws.shape == size + (n * (n - 1) // 2,)
        assert w.shape == size + (n, n)
        assert np.array_equal(w, mirror_pairs(draws, n))
        # The pairs i < j in row-major order, mirrored, with a zero diagonal.
        iu = np.triu_indices(n, k=1)
        assert np.array_equal(w[..., iu[0], iu[1]], draws)
        assert np.array_equal(w, np.swapaxes(w, -1, -2))
        assert not w[..., np.arange(n), np.arange(n)].any()
        # Both leave their generator in the same state.
        assert noise_rng.bit_generator.state == draws_rng.bit_generator.state

    def test_pair_draws_stack_is_consecutive_draws(self):
        stack = pair_draws(substream(7, 9), 6, 1.0, size=(3, 4))
        rng = substream(7, 9)
        assert stack.shape == (3, 4, 15)
        for row in stack.reshape(-1, 15):
            assert np.array_equal(row, pair_draws(rng, 6, 1.0))

    @pytest.mark.parametrize("sigma_w", [-1.0, math.inf, math.nan])
    def test_pair_draws_rejects_sigma(self, sigma_w):
        with pytest.raises(ValueError, match="^sigma_w must be >= 0 and finite"):
            pair_draws(substream(7, 9), 6, sigma_w)

    @pytest.mark.parametrize("magnitude", [-1.0, math.inf, math.nan])
    def test_fault_config_rejects_magnitude(self, magnitude):
        with pytest.raises(ValueError, match="^fault magnitude must be >= 0 and finite"):
            FaultConfig(fault_set={1}, magnitude=magnitude)
