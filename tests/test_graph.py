import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import seeded_graph, seeded_tree
from oracles import floyd_warshall
from qiso.errors import (
    Disconnected,
    EmptyGraph,
    EmptySet,
    InvalidEdge,
    InvalidVertex,
    NotATree,
)
from qiso.generators import (
    complete_graph,
    cycle_graph,
    non_uniecc_chordal,
    path_graph,
    random_tree,
    star_graph,
)
from qiso.graph import (
    CheckResult,
    EccentricityProfile,
    Graph,
    _eccentricities,
    _extremes,
    bfs_distances,
    center,
    diameter_path,
    distance_sum,
    eccentricity_profile,
    median,
    require_tree,
    set_distance,
    uni_ecc_holds,
)

seeds = st.integers(min_value=0, max_value=10_000)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(EmptyGraph):
            Graph(0)

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(InvalidVertex):
            Graph(2, [(0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidEdge):
            Graph(2, [(0, 0), (0, 1)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(InvalidEdge, match=r"^duplicate edge \(0, 1\)$"):
            Graph(2, [(0, 1), (1, 0)])
        with pytest.raises(InvalidEdge, match=r"^duplicate edge \(2, 4\)$"):
            Graph(5, [(0, 2), (2, 4), (1, 4), (4, 3), (4, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(Disconnected):
            Graph(4, [(0, 1), (2, 3)])

    def test_single_vertex_ok(self):
        g = Graph(1)
        assert g.vertex_count == 1 and g.edge_count == 0 and g.is_tree

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 1), (0, 2), (3, 0)])
        assert g.neighbors(2) == (0, 1)
        assert all(v in g.neighbors(u) for u in g.vertices() for v in g.neighbors(u))


class TestBfs:
    def test_path_distances(self):
        assert bfs_distances(path_graph(5), 0) == [0, 1, 2, 3, 4]

    def test_source_distance_zero(self):
        g = seeded_graph(3)
        for s in g.vertices():
            assert bfs_distances(g, s)[s] == 0

    def test_invalid_source(self):
        with pytest.raises(InvalidVertex):
            bfs_distances(path_graph(3), 3)

    def test_matches_floyd_warshall_on_tree(self):
        t = random_tree(50, seed=1)
        oracle = floyd_warshall(t)
        for v in t.vertices():
            assert bfs_distances(t, v) == oracle[v]

    @given(seeds)
    def test_matches_floyd_warshall(self, seed):
        g = seeded_graph(seed, max_n=25)
        oracle = floyd_warshall(g)
        for v in g.vertices():
            assert bfs_distances(g, v) == oracle[v]

    @given(seeds)
    def test_metric_axioms(self, seed):
        g = seeded_graph(seed, max_n=18)
        d = floyd_warshall(g)
        n = g.vertex_count
        for x in range(n):
            for y in range(n):
                assert (d[x][y] == 0) == (x == y)
                assert d[x][y] == d[y][x]
                for z in range(n):
                    assert d[x][z] <= d[x][y] + d[y][z]


class TestSetDistance:
    def test_same_singleton(self):
        assert set_distance(path_graph(5), [2], [2]) == 0

    def test_path_endpoints(self):
        assert set_distance(path_graph(5), [0], [4]) == 4

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            set_distance(path_graph(3), [], [0])

    def test_zero_iff_intersecting(self):
        g = seeded_graph(11)
        assert set_distance(g, [0, 1], [1, 2]) == 0

    @given(seeds)
    def test_matches_pairwise_oracle(self, seed):
        g = seeded_graph(seed, max_n=20)
        rng = random.Random(seed)
        n = g.vertex_count
        s1 = rng.sample(range(n), rng.randrange(1, n + 1))
        s2 = rng.sample(range(n), rng.randrange(1, n + 1))
        oracle = min(floyd_warshall(g)[a][b] for a in s1 for b in s2)
        assert set_distance(g, s1, s2) == oracle


class TestEccentricity:
    def test_path_profile(self):
        prof = eccentricity_profile(path_graph(5))
        assert prof.eccentricity == (4, 3, 2, 3, 4)
        assert prof.radius == 2 and prof.diameter == 4

    def test_star_profile(self):
        prof = eccentricity_profile(star_graph(7))
        assert prof.eccentricity[0] == 1
        assert all(e == 2 for e in prof.eccentricity[1:])

    def test_witnesses_realize_eccentricity(self):
        g = seeded_graph(5)
        prof = eccentricity_profile(g)
        for v in g.vertices():
            dist = bfs_distances(g, v)
            expected = tuple(x for x in g.vertices() if dist[x] == prof.eccentricity[v])
            assert prof.witnesses[v] == expected

    @given(seeds)
    def test_radius_diameter_invariants(self, seed):
        g = seeded_graph(seed, max_n=25)
        prof = eccentricity_profile(g)
        assert prof.radius == min(prof.eccentricity)
        assert prof.diameter == max(prof.eccentricity)
        assert prof.radius <= prof.diameter <= 2 * prof.radius

    @given(seeds)
    def test_eccentricity_is_lipschitz(self, seed):
        g = seeded_graph(seed, max_n=20)
        prof = eccentricity_profile(g)
        d = floyd_warshall(g)
        for u, v in itertools.combinations(g.vertices(), 2):
            assert abs(prof.eccentricity[u] - prof.eccentricity[v]) <= d[u][v]


class TestCenterMedian:
    def test_path_centers(self):
        assert center(path_graph(5)) == (2,)
        assert center(path_graph(6)) == (2, 3)

    def test_path_median(self):
        assert distance_sum(path_graph(5), 2) == 6
        assert median(path_graph(5)) == (2,)

    def test_star_median_is_hub(self):
        assert median(star_graph(7)) == (0,)

    def test_distance_sum_is_one_search(self, monkeypatch):
        # One BFS row, so no matrix and no size guard, on trees and on
        # graphs with cycles above the guard's 2000 vertices.
        from qiso.weighted import WeightedGraph, weighted_distance_sum

        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built for one row")

        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        for g in [random_tree(3000, seed) for seed in range(3)] + [cycle_graph(2001)]:
            unit = WeightedGraph(g, (1,) * g.vertex_count)
            for v in random.Random(g.vertex_count).sample(range(g.vertex_count), 5):
                total = distance_sum(g, v)
                assert type(total) is int and total == weighted_distance_sum(unit, v)
        assert distance_sum(cycle_graph(2001), 0) == 2 * sum(range(1001))
        with pytest.raises(InvalidVertex):
            distance_sum(path_graph(3), 3)

    def test_median_matches_unit_weights(self):
        from qiso.weighted import WeightedGraph, weighted_median

        graphs = [random_tree(40, seed=9)] + [seeded_graph(seed) for seed in range(20)]
        for g in graphs:
            assert median(g) == weighted_median(WeightedGraph(g, (1,) * g.vertex_count))

    @given(seeds)
    def test_tree_center_small_and_adjacent(self, seed):
        t = seeded_tree(seed)
        c = center(t)
        assert len(c) in (1, 2)
        if len(c) == 2:
            assert t.adjacent(*c)


class TestMatrixReductions:
    @given(seeds, st.booleans())
    def test_match_floyd_warshall(self, seed, tree):
        g = seeded_tree(seed, max_n=30) if tree else seeded_graph(seed, max_n=25)
        d = floyd_warshall(g)
        ecc = [max(row) for row in d]
        rad = min(ecc)
        wits = tuple(tuple(x for x, dx in enumerate(row) if dx == e) for row, e in zip(d, ecc))
        assert eccentricity_profile(g) == EccentricityProfile(tuple(ecc), wits, rad, max(ecc))
        ctr = tuple(v for v, e in enumerate(ecc) if e == rad)
        assert center(g) == ctr
        sums = [sum(row) for row in d]
        assert median(g) == tuple(v for v, s in enumerate(sums) if s == min(sums))
        assert [distance_sum(g, v) for v in g.vertices()] == sums
        bad = [v for v in g.vertices() if min(d[c][v] for c in ctr) != ecc[v] - rad]
        res = uni_ecc_holds(g)
        assert res.ok == (not bad)
        assert res.witness == (bad[0] if bad else None)


class TestLeafRemoval:
    """A tree's center, which peeling leaves would find, from the eccentricities."""

    def test_path7(self):
        assert center(path_graph(7)) == (3,)

    def test_star(self):
        assert center(star_graph(7)) == (0,)

    def test_two_vertices(self):
        assert center(path_graph(2)) == (0, 1)

    def test_rejects_non_tree(self):
        with pytest.raises(NotATree):
            require_tree(complete_graph(4))

    def test_matches_center_on_random_trees(self):
        for seed in range(200):
            t = seeded_tree(seed)
            ecc = [max(row) for row in floyd_warshall(t)]
            expected = tuple(v for v, e in enumerate(ecc) if e == min(ecc))
            assert center(t) == expected

    def test_longest_path_gives_center_radius_and_diameter(self):
        # One cached vector answers all three, on trees and off them.
        graphs = [seeded_tree(seed, min_n=1, max_n=50) for seed in range(150)]
        graphs += [make(n) for make in (path_graph, star_graph) for n in range(1, 40)]
        graphs += [cycle_graph(3)] + [seeded_graph(seed) for seed in range(60)]
        for g in graphs:
            ecc = [max(row) for row in floyd_warshall(g)]
            cen = tuple(v for v, e in enumerate(ecc) if e == min(ecc))
            assert _eccentricities(g) == tuple(ecc)
            assert _extremes(g) == (cen, min(ecc), max(ecc))


class TestDiameterPath:
    def test_whole_path(self):
        assert diameter_path(path_graph(9)) == [8, 7, 6, 5, 4, 3, 2, 1, 0]

    def test_star_length_two(self):
        path = diameter_path(star_graph(7))
        assert len(path) == 3 and path[1] == 0

    def test_rejects_non_tree(self):
        with pytest.raises(NotATree):
            diameter_path(complete_graph(3))

    @given(seeds)
    def test_length_matches_all_pairs_maximum(self, seed):
        t = seeded_tree(seed, min_n=2, max_n=40)
        path = diameter_path(t)
        oracle = max(max(row) for row in floyd_warshall(t))
        assert len(path) - 1 == oracle
        assert all(t.adjacent(a, b) for a, b in zip(path, path[1:]))
        assert len(set(path)) == len(path)


class TestUniEcc:
    def test_trees_satisfy_it(self):
        for seed in range(60):
            assert uni_ecc_holds(seeded_tree(seed)).ok

    def test_complete_graph(self):
        assert uni_ecc_holds(complete_graph(4)).ok

    def test_matches_floyd_warshall(self):
        graphs = [seeded_graph(seed) for seed in range(60)] + [non_uniecc_chordal()]
        for g in graphs + [seeded_tree(seed) for seed in range(20)]:
            d = floyd_warshall(g)
            ecc = [max(row) for row in d]
            rad = min(ecc)
            ctr = [v for v, e in enumerate(ecc) if e == rad]
            bad = [v for v in g.vertices() if min(d[c][v] for c in ctr) != ecc[v] - rad]
            assert uni_ecc_holds(g) == CheckResult(not bad, bad[0] if bad else None)
        assert not uni_ecc_holds(non_uniecc_chordal())

    def test_large_tree_needs_no_matrix(self, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("all-pairs matrix built for a tree")

        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        assert uni_ecc_holds(random_tree(3000, 11)) == CheckResult(True)

    @given(seeds)
    def test_lower_direction_always_holds(self, seed):
        # Distance to the center can only exceed ecc - rad, never undercut it.
        g = seeded_graph(seed, max_n=20)
        prof = eccentricity_profile(g)
        ctr = center(g)
        for v in g.vertices():
            assert set_distance(g, ctr, [v]) >= prof.eccentricity[v] - prof.radius
