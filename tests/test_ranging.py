import numpy as np
import pytest

from satfd.linkgraph import build_visibility_graph
from satfd.ranging import FaultConfig, add_bias, measure_ranges
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

    def test_noise_statistics_one_edge(self):
        ps, graph = cluster()
        dist = true_distances(ps)
        rng = substream(42, 9)
        samples = np.array([
            measure_ranges(ps, graph, FaultConfig(), 1.0, rng).r[0, 1]
            for _ in range(100_000)
        ])
        # 3 sigma / sqrt(N) ~ 0.0095 for the mean; similar for the std
        assert abs(samples.mean() - dist[0, 1]) < 0.02
        assert abs(samples.std(ddof=1) - 1.0) < 0.02

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
