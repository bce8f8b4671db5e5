import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import assert_validated_equal, seeded_graph, seeded_tree
from oracles import first_stretched_edge, floyd_warshall, mis_bounds_witness
from qiso.errors import InvalidMapping, InvalidVertex, NotIndependent, NotMaximal
from qiso.generators import (
    complete_graph,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from qiso.graph import Graph, bfs_distances
from qiso.mis import (
    MisResult,
    check_maximal_independent,
    greedy_mis,
    mis_derived,
    verify_mis_bounds,
)
from qiso.quasi import (
    VertexMapping,
    minimal_additive_for_stretch,
    minimal_constants,
    verify_q1,
    verify_q2,
)

seeds = st.integers(min_value=0, max_value=10_000)


def hub_last_star(leaves=6):
    # Star whose hub carries the largest id, so the greedy sweep picks leaves.
    return Graph(leaves + 1, [(i, leaves) for i in range(leaves)])


class TestGreedy:
    def test_star_hub_first(self):
        assert greedy_mis(star_graph(7)) == (0,)

    def test_star_hub_last_yields_all_leaves(self):
        g = hub_last_star(6)
        assert greedy_mis(g) == (0, 1, 2, 3, 4, 5)

    def test_path_alternates(self):
        assert greedy_mis(path_graph(5)) == (0, 2, 4)

    def test_order_parameter_reproduces_adversarial_case(self):
        g = star_graph(7)
        assert greedy_mis(g, order=[1, 2, 3, 4, 5, 6, 0]) == (1, 2, 3, 4, 5, 6)

    def test_order_must_be_permutation(self):
        with pytest.raises(InvalidVertex):
            greedy_mis(path_graph(3), order=[0, 1, 1])

    @given(seeds)
    def test_result_is_maximal_independent(self, seed):
        g = seeded_graph(seed, max_n=30)
        check_maximal_independent(g, greedy_mis(g))

    def test_non_maximal_set_names_its_first_free_vertex(self):
        # Vertices 2, 3 and 4 could each join {0, 6}; the smallest is named.
        with pytest.raises(NotMaximal, match=r"^vertex 2 could be added to the set$"):
            check_maximal_independent(path_graph(7), (0, 6))

    @given(seeds)
    def test_permuted_orders_stay_maximal_independent(self, seed):
        g = seeded_graph(seed, max_n=25)
        order = list(g.vertices())
        random.Random(seed).shuffle(order)
        check_maximal_independent(g, greedy_mis(g, order=order))


class TestDerivedGraph:
    def test_path5(self):
        r = mis_derived(path_graph(5), (0, 2, 4))
        assert r.mis == (0, 2, 4)
        assert r.derived.edges() == [(0, 1), (1, 2)]
        assert r.mapping.image == (0, 0, 1, 1, 2)

    def test_star_leaves_become_complete(self):
        g = hub_last_star(6)
        r = mis_derived(g, greedy_mis(g))
        assert r.derived.vertex_count == 6
        assert r.derived.edge_count == 15
        # An acyclic input produced a derived graph full of cycles.
        assert g.is_tree and not r.derived.is_tree

    def test_mis_can_have_all_but_one_vertex(self):
        g = hub_last_star(6)
        assert len(greedy_mis(g)) == g.vertex_count - 1

    def test_rejects_dependent_set(self):
        with pytest.raises(NotIndependent):
            mis_derived(path_graph(3), (0, 1))

    def test_rejects_non_maximal_set(self):
        with pytest.raises(NotMaximal):
            mis_derived(path_graph(5), (0,))

    def test_derived_connected_on_ensemble(self):
        # The derived graph is built unchecked, so connectivity is tested here.
        for seed in range(30):
            g = seeded_graph(seed, max_n=40)
            r = mis_derived(g, greedy_mis(g))
            assert r.derived.vertex_count == len(r.mis)
            assert -1 not in bfs_distances(r.derived, 0)

    def test_equals_validated_build(self, monkeypatch):
        # The derived graph is built unchecked; it must equal the graph
        # validated on the pairs of members within distance 3, at every
        # chunk width; sets of over 100 members span several chunks.
        rng = random.Random(11)
        graphs = [path_graph(n) for n in (1, 2, 3)] + [hub_last_star(6), complete_graph(5)]
        graphs += [seeded_tree(seed, min_n=1, max_n=60) for seed in range(60)]
        graphs += [seeded_graph(seed, min_n=1, max_n=60) for seed in range(60)]
        graphs += [path_graph(260), random_tree(300, 1), random_tree(300, 2)]
        graphs += [random_connected_graph(300, 600, seed) for seed in (1, 2)]
        for g in graphs:
            order = list(g.vertices())
            rng.shuffle(order)
            for s in (greedy_mis(g), greedy_mis(g, order)):
                members = set(s)
                image = [
                    v if v in members else rng.choice([u for u in g.adjacency[v] if u in members])
                    for v in g.vertices()
                ]
                mis = sorted(members)
                dist = [bfs_distances(g, v) for v in mis]
                k = len(mis)
                near = [(i, j) for i in range(k) for j in range(i + 1, k) if dist[i][mis[j]] <= 3]
                for chunk in (1, 63, 64, 65, max(1, k - 1)):
                    monkeypatch.setattr("qiso.graph._CHUNK", chunk)
                    for r in (mis_derived(g, s), mis_derived(g, s, image)):
                        assert_validated_equal(r.derived, near)

    def test_builds_no_matrix(self, monkeypatch):
        # Members within 3 come from a bounded search, never the matrix.
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built for the derived graph")

        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        rng = random.Random(3)
        graphs = [path_graph(n) for n in (1, 2, 3)]
        graphs += [seeded_tree(seed, min_n=1, max_n=60) for seed in range(20)]
        graphs += [seeded_graph(seed, min_n=1, max_n=60) for seed in range(20)]
        for g in graphs:
            s = greedy_mis(g)
            image = [
                v if v in s else rng.choice([u for u in g.adjacency[v] if u in s])
                for v in g.vertices()
            ]
            assert mis_derived(g, s).derived == mis_derived(g, s, image).derived

    def test_custom_image_accepted(self):
        g = path_graph(5)
        r = mis_derived(g, (0, 2, 4), image=[0, 2, 2, 4, 4])
        assert r.mapping.image == (0, 1, 1, 2, 2)

    def test_custom_image_validated(self):
        g = path_graph(5)
        with pytest.raises(InvalidMapping):
            mis_derived(g, (0, 2, 4), image=[0, 4, 2, 2, 4])
        with pytest.raises(InvalidMapping):
            mis_derived(g, (0, 2, 4), image=[2, 0, 2, 2, 4])


class TestBounds:
    def test_path5_hand_values(self):
        r = mis_derived(path_graph(5), (0, 2, 4))
        d_g = bfs_distances(path_graph(5), 0)[4]
        d_s = bfs_distances(r.derived, 0)[2]
        assert (d_g, d_s) == (4, 2)
        assert max(1, d_g // 3) <= d_s <= d_g
        assert verify_mis_bounds(r).ok

    def test_sandwich_against_oracle(self):
        # Recompute both metrics with the brute-force all-pairs oracle.
        g = seeded_graph(31, max_n=20)
        r = mis_derived(g, greedy_mis(g))
        dg = floyd_warshall(g)
        ds = floyd_warshall(r.derived)
        img = r.mapping.image
        for x in g.vertices():
            for y in g.vertices():
                if img[x] == img[y]:
                    assert ds[img[x]][img[y]] == 0
                else:
                    d = dg[x][y]
                    assert max(1, d // 3) <= ds[img[x]][img[y]] <= d

    @given(
        seeds,
        st.sampled_from([path_graph, star_graph, complete_graph]),
        st.sampled_from([seeded_graph, seeded_tree]),
    )
    def test_wrong_derived_graph_reports_reference_witness(self, seed, family, source):
        # On a tree the mapping may be a tree quotient, checked without
        # matrices. A wrong graph that stretches an edge is refused first.
        g = source(seed, max_n=20)
        good = mis_derived(g, greedy_mis(g))
        wrong = family(good.derived.vertex_count)
        edge = first_stretched_edge(g, wrong, good.mapping.image)
        if edge is not None:
            with pytest.raises(InvalidMapping, match=rf"^edge \({edge[0]}, {edge[1]}\) "):
                VertexMapping(g, wrong, good.mapping.image)
            return
        r = MisResult(good.mis, wrong, VertexMapping(g, wrong, good.mapping.image))
        expected = mis_bounds_witness(r)
        res = verify_mis_bounds(r)
        assert res.ok == (expected is None)
        assert res.witness == expected

    @given(seeds)
    def test_bounds_hold_on_ensemble(self, seed):
        g = seeded_graph(seed, max_n=35)
        assert verify_mis_bounds(mis_derived(g, greedy_mis(g))).ok


class TestQuasiIsometryGuarantee:
    @given(seeds)
    def test_three_one_zero(self, seed):
        g = seeded_graph(seed, max_n=30)
        m = mis_derived(g, greedy_mis(g)).mapping
        assert verify_q1(m, 3, 1).ok
        assert verify_q2(m, 0)

    @given(seeds)
    def test_guaranteed_constants_dominate_minimal(self, seed):
        # Lexicographically the minimal pair never beats (3, 1), and at
        # stretch 3 an additive of 1 always suffices.
        g = seeded_graph(seed, max_n=25)
        m = mis_derived(g, greedy_mis(g)).mapping
        cst = minimal_constants(m)
        assert (cst.stretch, cst.additive) <= (3, 1) or cst.stretch < 3
        assert minimal_additive_for_stretch(m, 3) <= 1
        assert cst.density == 0
