import itertools
from math import comb

import numpy as np
import pytest

from satfd.cliques import (
    CliqueSchedule,
    ScheduleEntry,
    build_clique_schedule,
    list_k_cliques,
)
from satfd.constellation import PositionSet, load_bundled, orbital_period
from satfd.linkgraph import VisibilityGraph


def make_graph(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return VisibilityGraph(adjacency=adj)


def complete_graph(n):
    return make_graph(n, itertools.combinations(range(n), 2))


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

    def test_mars_walker_per_satellite_floor(self):
        # every satellite keeps at least 32 self-containing 6-cliques
        config = load_bundled("walker_mars")
        period = orbital_period(config.satellites[0].a, config.body.mu)
        times = np.linspace(0.0, period, 20)
        schedule = build_clique_schedule(config, times)
        for entry in schedule.entries:
            assert (np.bincount(entry.cliques.ravel(), minlength=12) >= 32).all()


class TestCliqueOps:
    def test_containing_counts(self):
        # per-satellite counts as the cliques command writes them
        cliques = list_k_cliques(complete_graph(6), 6)
        assert np.bincount(cliques.ravel(), minlength=8)[3] == 1
        empty = list_k_cliques(complete_graph(4), 6)
        assert np.bincount(empty.ravel(), minlength=8)[3] == 0


class TestSchedule:
    def test_epochs_strictly_increasing(self):
        graph = complete_graph(6)
        entry = ScheduleEntry(positions=PositionSet(t=0.0, positions=np.zeros((6, 3))),
                              graph=graph, cliques=list_k_cliques(graph, 6))
        with pytest.raises(ValueError):
            CliqueSchedule(entries=(entry, entry))

    def test_build_matches_single_epoch(self):
        config = load_bundled("elfo_moon")
        schedule = build_clique_schedule(config, [0.0, 60.0])
        assert [e.t for e in schedule.entries] == [0.0, 60.0]
        assert all(e.cliques.shape[1] == 6 for e in schedule.entries)
        for e in schedule.entries:
            assert np.array_equal(e.cliques, list_k_cliques(e.graph, 6))
