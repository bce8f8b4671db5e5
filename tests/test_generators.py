import hashlib
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import floyd_warshall, is_chordal, longest_simple_cycle
from qiso import generators
from qiso.errors import EmptyGraph, InvalidEdgeCount, TooLarge
from qiso.generators import (
    NON_UNIECC_CHORDAL_EDGES,
    complete_graph,
    cycle_graph,
    non_uniecc_chordal,
    path_graph,
    random_connected_graph,
    random_partition,
    random_tree,
    star_graph,
)
from qiso.graph import bfs_distances, center, eccentricity_profile, uni_ecc_holds

seeds = st.integers(min_value=0, max_value=10_000)


class TestFamilies:
    def test_path_edges(self):
        assert path_graph(5).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_path_single_vertex(self):
        assert path_graph(1).vertex_count == 1

    def test_star_hub_degree(self):
        assert star_graph(7).degree(0) == 6

    def test_complete_edge_count(self):
        assert complete_graph(5).edge_count == 10

    def test_cycle(self):
        assert cycle_graph(5).edge_count == 5
        with pytest.raises(InvalidEdgeCount):
            cycle_graph(2)

    def test_empty_rejected(self):
        for family in (path_graph, star_graph, complete_graph):
            with pytest.raises(EmptyGraph):
                family(0)


class TestRandomTree:
    @given(seeds, st.integers(1, 80))
    def test_is_a_tree(self, seed, n):
        t = random_tree(n, seed)
        assert t.vertex_count == n and t.is_tree

    def test_deterministic(self):
        assert random_tree(40, 3).edges() == random_tree(40, 3).edges()

    def test_seed_matters(self):
        assert random_tree(40, 3).edges() != random_tree(40, 4).edges()


class TestRandomConnectedGraph:
    @given(seeds, st.integers(2, 30), st.integers(0, 200))
    def test_edge_count_and_connectivity(self, seed, n, extra):
        max_m = n * (n - 1) // 2
        m = min(max_m, n - 1 + extra)
        g = random_connected_graph(n, m, seed)
        assert g.vertex_count == n and g.edge_count == m

    def test_full_density_is_complete(self):
        g = random_connected_graph(6, 15, 1)
        assert g == complete_graph(6)

    def test_deterministic(self):
        a = random_connected_graph(10, 20, 5)
        b = random_connected_graph(10, 20, 5)
        assert a.edges() == b.edges()
        # The spanning tree is random_tree's, drawn from the same seed.
        for n in range(1, 40):
            for seed in range(30):
                tree = random_connected_graph(n, n - 1, seed)
                assert tree.edges() == random_tree(n, seed).edges()

    @pytest.mark.parametrize(
        "n, m, seed, digest",
        [
            (8, 28, 5, "d717339572074889d50ccb124970c48d7edc446c6f8fe65d7db1526809ff8072"),
            (12, 50, 3, "71ade8b99810b643f6348c1a9ab4411e545ddcb3a01b7d2680cdb491dd6e51be"),
            (50, 441, 9, "f6b215ca8b24e172863f047b8460a903c48ee8c434576c6eb69f0cc9fe0a1e20"),
            (100, 4500, 0, "0f3afa730129b0b2e05fa2c19135b43914e43a92bea1df52d0ae0de2653c35c7"),
            (200, 15000, 42, "f258a8000bc1ac22cfa73c261a9bd593b09af64cc78898e73c6cef5637f69041"),
        ],
    )
    def test_dense_edges_are_pinned(self, n, m, seed, digest):
        # Dense requests (3 * extra >= missing pairs) draw their extra edges
        # by index among the missing pairs; these digests pin the edge lists
        # that drawing gives, so a seed keeps its graph across versions.
        edges = repr(random_connected_graph(n, m, seed).edges()).encode()
        assert hashlib.sha256(edges).hexdigest() == digest

    def test_dense_draw_lists_no_missing_pair(self, monkeypatch):
        # At the dense threshold a list of every missing pair would cost a
        # 2-tuple and a list slot, 64 bytes, per pair; the draw keeps a byte
        # and sample()'s copy of the index range, about 41 bytes, per pair.
        # Graph() is stubbed out so that only the drawing is measured.
        monkeypatch.setattr(generators, "Graph", lambda n, edges: edges)
        n = 600
        missing = n * (n - 1) // 2 - (n - 1)
        tracemalloc.start()
        try:
            random_connected_graph(n, n - 1 + -(-missing // 3), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * missing, peak

    def test_infeasible_rejected(self):
        with pytest.raises(InvalidEdgeCount):
            random_connected_graph(5, 3, 0)
        with pytest.raises(InvalidEdgeCount):
            random_connected_graph(5, 11, 0)


class TestRandomPartition:
    def test_deterministic(self):
        g = random_connected_graph(15, 25, 2)
        assert random_partition(g, 9).blocks == random_partition(g, 9).blocks


class TestFrozenChordalCounterexample:
    def test_chordality(self):
        assert is_chordal(non_uniecc_chordal())

    def test_center_is_a_single_vertex_with_radius_two(self):
        g = non_uniecc_chordal()
        assert eccentricity_profile(g).radius == 2
        assert len(center(g)) == 1

    def test_violates_uniform_eccentricity(self):
        g = non_uniecc_chordal()
        check = uni_ecc_holds(g)
        assert not check.ok
        prof = eccentricity_profile(g)
        dist = bfs_distances(g, center(g)[0])
        v = check.witness
        assert dist[v] != prof.eccentricity[v] - prof.radius

    def test_has_distance_two_vertex_of_eccentricity_three(self):
        g = non_uniecc_chordal()
        prof = eccentricity_profile(g)
        dist = bfs_distances(g, center(g)[0])
        assert any(
            prof.eccentricity[v] == 3 and dist[v] == 2 for v in g.vertices()
        )

    def test_constant_matches_module_graph(self):
        assert non_uniecc_chordal().edges() == sorted(NON_UNIECC_CHORDAL_EDGES)


class TestLongestSimpleCycle:
    def test_tree_has_none(self):
        assert longest_simple_cycle(random_tree(9, 0)) == 0

    def test_cycle_graph(self):
        assert longest_simple_cycle(cycle_graph(5)) == 5

    def test_complete_four(self):
        assert longest_simple_cycle(complete_graph(4)) == 4

    def test_chorded_cycle(self):
        from qiso.graph import Graph

        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        assert longest_simple_cycle(g) == 6

    def test_guard(self):
        with pytest.raises(TooLarge):
            longest_simple_cycle(path_graph(13))


class TestOracleConsistency:
    @given(seeds)
    def test_floyd_warshall_is_symmetric(self, seed):
        g = random_tree(1 + seed % 20, seed)
        d = floyd_warshall(g)
        assert all(d[i][j] == d[j][i] for i in g.vertices() for j in g.vertices())

    def test_chordality_oracle_on_knowns(self):
        assert is_chordal(complete_graph(5))
        assert is_chordal(random_tree(20, 4))
        assert not is_chordal(cycle_graph(4))
        assert not is_chordal(cycle_graph(6))
