import itertools
import math
from math import comb

import numpy as np
import pytest

from satfd.cliques import (
    EPOCH_STEP, build_clique_schedule, check_window, iter_schedule, list_k_cliques,
)
from satfd.constellation import load_bundled, orbital_period, propagate
from satfd.linkgraph import VisibilityGraph, build_visibility_graph


def make_graph(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return VisibilityGraph(adjacency=adj)


def complete_graph(n):
    return make_graph(n, itertools.combinations(range(n), 2))


def masked_list_k_cliques(graph, k):
    """The earlier lister: each level masks the common neighbours by
    ids > last member and column-stacks the cliques it extends."""
    adj = graph.adjacency
    n = len(adj)
    if k > n:
        return np.zeros((0, k), dtype=np.intp)
    ids = np.arange(n, dtype=np.intp)
    cliques = ids[:, None]
    common = adj.copy()
    for _ in range(k - 1):
        rows, v = np.nonzero(common & (ids > cliques[:, -1:]))
        cliques = np.column_stack([cliques[rows], v])
        common = common[rows] & adj[v]
    return cliques


class TestListKCliques:
    def test_k6_of_k6(self):
        assert np.array_equal(list_k_cliques(complete_graph(6), 6), [list(range(6))])

    def test_k8_binomial_count(self):
        assert len(list_k_cliques(complete_graph(8), 6)) == comb(8, 6)

    def test_empty_when_too_large(self):
        found = list_k_cliques(complete_graph(4), 6)
        assert found.shape == (0, 6) and found.dtype == np.intp

    def test_every_clique_fully_connected(self):
        rng = np.random.default_rng(33)
        n = 12
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        graph = make_graph(n, edges)
        for clique in list_k_cliques(graph, 5):
            for a, b in itertools.combinations(clique, 2):
                assert graph.adjacency[a, b]

    def test_edge_addition_monotone(self):
        rng = np.random.default_rng(4)
        n = 10
        all_edges = list(itertools.combinations(range(n), 2))
        rng.shuffle(all_edges)
        kept = all_edges[: len(all_edges) // 2]
        before = len(list_k_cliques(make_graph(n, kept), 4))
        after = len(list_k_cliques(make_graph(n, kept + [all_edges[-1]]), 4))
        assert after >= before

    @pytest.mark.parametrize("name", ["elfo_moon", "walker_mars"])
    def test_equals_masked_lister_on_every_epoch(self, name):
        # Every 60 s epoch of one period, k = 1 to 8.
        config = load_bundled(name)
        times = np.arange(0.0, config.period, 60.0)
        adjacency = build_visibility_graph(propagate(config, times), config.body.radius).adjacency
        for adj in adjacency:
            graph = VisibilityGraph(adjacency=adj)
            for k in range(1, 9):
                found = list_k_cliques(graph, k)
                assert found.dtype == np.intp
                assert np.array_equal(found, masked_list_k_cliques(graph, k))

    def test_mars_walker_per_satellite_floor(self):
        # every satellite keeps at least 32 self-containing 6-cliques
        config = load_bundled("walker_mars")
        period = orbital_period(config.satellites[0].a, config.body.mu)
        times = np.linspace(0.0, period, 20)
        schedule = build_clique_schedule(config, times)
        for entry in schedule:
            assert (np.bincount(entry.cliques.ravel(), minlength=12) >= 32).all()


class TestCheckWindow:
    def test_period_epochs_accepted_one_more_refused(self):
        period = load_bundled("elfo_moon").period
        epochs = math.ceil(period / EPOCH_STEP)
        assert epochs == 720
        for dl in (1, epochs):
            assert check_window(dl, period, EPOCH_STEP, "dl") == epochs
        with pytest.raises(ValueError) as exc:
            check_window(epochs + 1, period, EPOCH_STEP, "di (--dl)")
        assert str(exc.value) == ("di (--dl) must not exceed one orbital period, "
                                  "720 epochs of 60 s; got 721")

    @pytest.mark.parametrize("dl", [0, -3])
    def test_empty_window_refused_by_name(self, dl):
        with pytest.raises(ValueError) as exc:
            check_window(dl, 3600.0, 120.0, "detection lengths (dl_list)")
        assert str(exc.value) == f"detection lengths (dl_list) must be >= 1, got {dl}"

    def test_partial_last_epoch_counts(self):
        # A period of 30.5 steps has 31 start epochs.
        assert check_window(31, 30.5 * 120.0, 120.0, "dl") == 31
        with pytest.raises(ValueError, match="31 epochs of 120 s; got 32"):
            check_window(32, 30.5 * 120.0, 120.0, "dl")


class TestCliqueOps:
    def test_containing_counts(self):
        # per-satellite counts as the cliques command writes them
        cliques = list_k_cliques(complete_graph(6), 6)
        assert np.bincount(cliques.ravel(), minlength=8)[3] == 1
        empty = list_k_cliques(complete_graph(4), 6)
        assert np.bincount(empty.ravel(), minlength=8)[3] == 0


class TestSchedule:
    def test_build_matches_single_epoch(self):
        # Each entry equals propagate -> build_visibility_graph -> list_k_cliques
        # run at its epoch alone.
        config = load_bundled("elfo_moon")
        times = 60.0 * np.arange(30)
        schedule = build_clique_schedule(config, times)
        assert [e.t for e in schedule] == times.tolist()
        assert all(e.cliques.shape[1] == 6 for e in schedule)
        for e in schedule:
            positions = propagate(config, e.t)
            graph = build_visibility_graph(positions, config.body.radius)
            assert np.array_equal(e.positions, positions)
            assert np.array_equal(e.graph.adjacency, graph.adjacency)
            assert np.array_equal(e.cliques, list_k_cliques(graph, 6))

    def test_iter_schedule_lists_k_cliques(self):
        config = load_bundled("elfo_moon")
        entries = iter_schedule(config, [0.0, 60.0], 4)
        first = next(entries)
        assert first.t == 0.0 and first.cliques.shape[1] == 4
        assert np.array_equal(first.cliques, list_k_cliques(first.graph, 4))
        assert [e.t for e in entries] == [60.0]

    @pytest.mark.parametrize("name, distinct", [("elfo_moon", 144), ("walker_mars", 34)])
    def test_held_schedule_shares_one_array_per_topology(self, name, distinct):
        # One period plus 4 epochs, as a campaign with DL 5 holds it.
        config = load_bundled(name)
        times = 60.0 * np.arange(math.ceil(config.period / 60.0) + 4)
        schedule = build_clique_schedule(config, times)
        by_adjacency = {}
        for e in schedule:
            assert np.array_equal(e.cliques, list_k_cliques(e.graph, 6))
            shared = by_adjacency.setdefault(e.graph.adjacency.tobytes(), e.cliques)
            assert e.cliques is shared
        assert len({id(e.cliques) for e in schedule}) == len(by_adjacency) == distinct
        with pytest.raises(ValueError):
            schedule[0].cliques[0, 0] = 0
