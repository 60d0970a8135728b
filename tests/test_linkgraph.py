import itertools

import numpy as np

from satfd.constellation import load_bundled, propagate
from satfd.linkgraph import build_visibility_graph, line_of_sight

R = 1.0


def segment_sampling_oracle(p1, p2, radius, samples=1000):
    """Dense sampling along the segment: visible iff all points clear the body."""
    s = np.linspace(0.0, 1.0, samples)[:, None]
    points = p1 + s * (p2 - p1)
    return bool(np.linalg.norm(points, axis=1).min() >= radius)


class TestLineOfSight:
    def test_through_center_blocked(self):
        assert not line_of_sight(np.array([2 * R, 0, 0]), np.array([-2 * R, 0, 0]), R)

    def test_quarter_arc_visible(self):
        # min segment distance is 2R/sqrt(2) = 1.414R >= R
        assert line_of_sight(np.array([2 * R, 0, 0]), np.array([0, 2 * R, 0]), R)

    def test_grazing_below_radius_blocked(self):
        eps = R / 2
        assert not line_of_sight(np.array([2 * R, eps, 0]), np.array([-2 * R, eps, 0]), R)

    def test_degenerate_segment_visible(self):
        p = np.array([2 * R, 0, 0])
        assert line_of_sight(p, p.copy(), R)

    def test_agrees_with_sampling_oracle(self):
        rng = np.random.default_rng(11)
        mismatches = 0
        for _ in range(1000):
            p1 = rng.uniform(-4, 4, 3)
            p2 = rng.uniform(-4, 4, 3)
            if np.linalg.norm(p1) <= R or np.linalg.norm(p2) <= R:
                continue
            got = line_of_sight(p1, p2, R)
            want = segment_sampling_oracle(p1, p2, R)
            # the 1000-point oracle can miss a sub-sample-width grazing dip,
            # so only exact disagreement in the visible direction counts
            if got != want and got:
                mismatches += 1
        assert mismatches == 0


class TestVisibilityGraph:
    def test_far_hemisphere_cluster_complete(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(8.0, 10.0, size=(6, 3))  # one octant, far above surface
        graph = build_visibility_graph(pos, R)
        off_diag = ~np.eye(6, dtype=bool)
        assert graph.adjacency[off_diag].all()

    def test_antipodal_low_orbits_blocked(self):
        pos = np.array([[1.1 * R, 0, 0], [-1.1 * R, 0, 0]])
        graph = build_visibility_graph(pos, R)
        assert not graph.adjacency[0, 1]

    def test_symmetry_no_self_loops(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pos = rng.uniform(-3, 3, size=(8, 3))
            pos[np.linalg.norm(pos, axis=1) < 1.2 * R] *= 3.0
            graph = build_visibility_graph(pos, R)
            assert np.array_equal(graph.adjacency, graph.adjacency.T)
            assert not graph.adjacency.diagonal().any()

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(9)
        pos = rng.uniform(-5, 5, size=(10, 3))
        pos[np.linalg.norm(pos, axis=1) < 2.0] += 4.0
        small = build_visibility_graph(pos, 0.5).adjacency
        large = build_visibility_graph(pos, 1.5).adjacency
        # shrinking the body never removes an edge
        assert (large <= small).all()

    def test_matches_line_of_sight_per_pair(self):
        # each adjacency entry is line_of_sight of that pair alone, so the
        # batched pair test cannot mix up i and j or the coordinate axis
        rng = np.random.default_rng(17)
        for n in (2, 3, 7, 12):
            pos = rng.uniform(-3, 3, size=(n, 3))
            pos[np.linalg.norm(pos, axis=1) < 1.1 * R] *= 3.0
            pos[-1] = pos[0]  # one coincident pair
            adj = build_visibility_graph(pos, R).adjacency
            assert adj[0, n - 1] and adj[n - 1, 0]
            for i, j in itertools.permutations(range(n), 2):
                assert adj[i, j] == line_of_sight(pos[i], pos[j], R)
            upper_i, upper_j = np.triu_indices(n, 1)
            batched = line_of_sight(pos[upper_i], pos[upper_j], R)
            assert batched.shape == (len(upper_i),)
            assert np.array_equal(batched, adj[upper_i, upper_j])
            pairwise = line_of_sight(pos[:, None], pos[None, :], R)
            assert pairwise.shape == (n, n)
            assert np.array_equal(pairwise, adj | np.eye(n, dtype=bool))

    def test_elfo_perilune_degrees(self):
        # satellites near perilune lose links to occultation: degree 4 or 5
        config = load_bundled("elfo_moon")
        ps = propagate(config, 0.0)
        graph = build_visibility_graph(ps, config.body.radius)
        radii = np.linalg.norm(ps, axis=1)
        near_perilune = radii < 1.2 * config.satellites[0].a * 0.4
        assert near_perilune.any()
        for sat in np.nonzero(near_perilune)[0]:
            assert graph.adjacency[sat].sum() in (4, 5)

    def test_grid_adjacency_equals_per_epoch_graphs(self):
        # One call on a (T, n, 3) grid gives each epoch's (n, n) adjacency.
        for name in ("elfo_moon", "walker_mars"):
            config = load_bundled(name)
            grid = propagate(config, 60.0 * np.arange(int(config.period // 60.0) + 1))
            stacked = build_visibility_graph(grid, config.body.radius).adjacency
            assert stacked.shape == (len(grid), 12, 12)
            per_epoch = [build_visibility_graph(ps, config.body.radius).adjacency for ps in grid]
            assert np.array_equal(stacked, per_epoch)
            # The grid holds both linked and occulted pairs, not a trivial graph.
            assert 0 < stacked.sum() < stacked.size - len(grid) * 12
