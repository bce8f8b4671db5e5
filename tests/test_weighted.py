import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import seeded_graph, seeded_tree, seeded_weights
from qiso.errors import InvalidVertex, InvalidWeight, NotAdjacent, NotATree
from qiso.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_partition,
    random_tree,
)
from qiso.graph import Graph, bfs_distances, distance_sum, median
from qiso.contraction import outward_contraction
from qiso.partition import Partition, build_partition_graph, singleton_partition
from qiso.weighted import (
    WeightedGraph,
    _median_blocks,
    locate_median_via_partition,
    median_preserved,
    subset_weight,
    subtree_side,
    subtree_split_check,
    weighted_distance_sum,
    weighted_median,
    weighted_partition_tree,
)

seeds = st.integers(min_value=0, max_value=10_000)


def weighted_tree(seed, min_n=2, max_n=40):
    t = seeded_tree(seed, min_n=min_n, max_n=max_n)
    return WeightedGraph(t, seeded_weights(seed, t.vertex_count))


def hub_tree():
    """A hub of six leaves with a four-edge tail; its median is the hub, 0."""
    edges = [(0, leaf) for leaf in range(1, 7)] + [(0, 7), (7, 8), (8, 9), (9, 10)]
    return Graph(11, edges)


def criterion_12_cases(kind):
    """The trees and partitions of acceptance criterion 12, one kind at a time."""
    if kind == "hub":
        t = hub_tree()
        yield t, outward_contraction(t, 10)
        return
    for seed in range(12000, 12500):
        rng = random.Random(seed)
        n = rng.randrange(2, 101)
        t = random_tree(n, seed)
        root = rng.randrange(n)
        if kind == "outward":
            yield t, outward_contraction(t, root)
        else:
            yield t, random_partition(t, seed)


def mirrored_tree(seed, max_n=20):
    """Two copies of a random tree joined at the root; forces a tied edge."""
    t = seeded_tree(seed, min_n=1, max_n=max_n)
    n = t.vertex_count
    edges = list(t.edges())
    edges += [(u + n, v + n) for u, v in edges]
    edges.append((0, n))
    w = seeded_weights(seed, n)
    return WeightedGraph(Graph(2 * n, edges), w + w), 0, n


class TestWeightedGraph:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidWeight):
            WeightedGraph(path_graph(3), (1, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidWeight):
            WeightedGraph(path_graph(2), (1, 0))
        with pytest.raises(InvalidWeight):
            WeightedGraph(path_graph(2), (1, Fraction(-1, 2)))
        with pytest.raises(InvalidWeight):
            WeightedGraph(path_graph(2), (1, 0.5))

    def test_fraction_weights_accepted(self):
        wg = WeightedGraph(path_graph(2), (Fraction(1, 3), 2))
        assert subset_weight(wg, [0, 1]) == Fraction(7, 3)

    def test_subset_weight_counts_each_vertex_once(self):
        wg = WeightedGraph(path_graph(3), (1, 2, 3))
        assert subset_weight(wg, [1, 1]) == subset_weight(wg, iter([1])) == 2
        assert subset_weight(wg, [2, 0, 2, 0]) == 4
        with pytest.raises(InvalidVertex, match="vertex 3 outside 0..2"):
            subset_weight(wg, [1, 3, 1, -1])


class TestDistanceSum:
    def test_unit_weights_match_unweighted(self):
        for seed in range(15):
            t = seeded_tree(seed, min_n=1, max_n=30)
            wg = WeightedGraph(t, (1,) * t.vertex_count)
            for v in t.vertices():
                assert weighted_distance_sum(wg, v) == distance_sum(t, v)

    def test_single_vertex(self):
        assert weighted_distance_sum(WeightedGraph(Graph(1), (5,)), 0) == 0

    @given(seeds)
    def test_matches_double_loop(self, seed):
        wg = weighted_tree(seed)
        for x in wg.graph.vertices():
            expected = sum(
                bfs_distances(wg.graph, x)[v] * wg.weights[v]
                for v in wg.graph.vertices()
            )
            assert weighted_distance_sum(wg, x) == expected


class TestWeightedMedian:
    def test_unit_weights_on_path(self):
        wg = WeightedGraph(path_graph(5), (1,) * 5)
        assert weighted_median(wg) == (2,)

    def test_heavy_endpoint_wins(self):
        wg = WeightedGraph(path_graph(3), (10, 1, 1))
        assert weighted_distance_sum(wg, 0) == 3
        assert weighted_distance_sum(wg, 1) == 11
        assert weighted_distance_sum(wg, 2) == 21
        assert weighted_median(wg) == (0,)

    def test_fraction_weights_match_distance_sum_argmin(self):
        # Trees take the subtree-weight path, graphs with cycles the matrix.
        cases = []
        for seed in range(40):
            rng = random.Random(seed)
            for g in (seeded_tree(seed, min_n=1, max_n=30), seeded_graph(seed, max_n=20)):
                weights = [Fraction(rng.randrange(1, 9), rng.randrange(1, 5)) for _ in g.vertices()]
                cases.append(WeightedGraph(g, tuple(weights)))
            wg, _, _ = mirrored_tree(seed)
            cases.append(WeightedGraph(wg.graph, tuple(Fraction(w, 3) for w in wg.weights)))
            # Equal weights on a cycle: every vertex ties.
            cases.append(WeightedGraph(cycle_graph(seed + 3), (Fraction(2, 3),) * (seed + 3)))
            g = seeded_graph(seed, max_n=20)
            n = g.vertex_count
            # Scaled by a large common multiple of denominators that still fits int64.
            cases.append(WeightedGraph(g, tuple(Fraction(1, v + 1) for v in range(n))))
            # Sums past 2**63: the Python-int product.
            big = [rng.randrange(10**17, 10**19) for _ in range(n)]
            cases.append(WeightedGraph(g, tuple(big)))
        for wg in cases:
            sums = [weighted_distance_sum(wg, v) for v in wg.graph.vertices()]
            argmin = tuple(v for v, s in enumerate(sums) if s == min(sums))
            assert weighted_median(wg) == argmin

    @given(seeds)
    def test_tree_median_small_and_adjacent(self, seed):
        wg = weighted_tree(seed)
        med = weighted_median(wg)
        assert len(med) in (1, 2)
        if len(med) == 2:
            assert wg.graph.adjacent(*med)


class TestSplitIdentity:
    def test_two_vertices(self):
        wg = WeightedGraph(path_graph(2), (1, 1))
        assert subtree_side(wg.graph, 0, 1) == (0,)
        assert subtree_split_check(wg, 0, 1)

    def test_requires_adjacency(self):
        wg = WeightedGraph(path_graph(3), (1, 1, 1))
        with pytest.raises(NotAdjacent):
            subtree_split_check(wg, 0, 2)

    def test_requires_tree(self):
        wg = WeightedGraph(complete_graph(3), (1, 1, 1))
        with pytest.raises(NotATree):
            subtree_split_check(wg, 0, 1)

    def test_every_edge_of_ensemble(self):
        for seed in range(60):
            wg = weighted_tree(seed)
            for x, y in wg.graph.edges():
                assert subtree_split_check(wg, x, y)

    @given(seeds)
    def test_heavier_side_has_smaller_sum(self, seed):
        # Smaller distance-sum on the side with the heavier subtree.
        wg = weighted_tree(seed)
        for x, y in wg.graph.edges():
            ds_x = weighted_distance_sum(wg, x)
            ds_y = weighted_distance_sum(wg, y)
            f_x = subset_weight(wg, subtree_side(wg.graph, x, y))
            f_y = subset_weight(wg, subtree_side(wg.graph, y, x))
            assert (ds_x < ds_y) == (f_y < f_x)

    @given(seeds)
    def test_downhill_dominance(self, seed):
        wg = weighted_tree(seed, max_n=25)
        sums = [weighted_distance_sum(wg, v) for v in wg.graph.vertices()]
        for x, y in wg.graph.edges():
            if sums[x] < sums[y]:
                for v in subtree_side(wg.graph, y, x):
                    assert sums[x] < sums[v]

    @given(seeds)
    def test_tie_makes_the_pair_the_median(self, seed):
        wg, x, y = mirrored_tree(seed)
        assert weighted_distance_sum(wg, x) == weighted_distance_sum(wg, y)
        assert weighted_median(wg) == (x, y)

    def test_natural_ties_on_ensemble(self):
        for seed in range(60):
            wg = weighted_tree(seed)
            sums = [weighted_distance_sum(wg, v) for v in wg.graph.vertices()]
            for x, y in wg.graph.edges():
                if sums[x] == sums[y]:
                    assert weighted_median(wg) == (min(x, y), max(x, y))


class TestPartitionTree:
    def test_singleton_blocks(self):
        t = seeded_tree(3, min_n=2)
        wq, mapping = weighted_partition_tree(singleton_partition(t))
        assert wq.graph == t
        assert all(w == 1 for w in wq.weights)
        assert mapping.image == tuple(t.vertices())

    def test_one_block(self):
        t = seeded_tree(5, min_n=2)
        wq, _ = weighted_partition_tree(Partition(t, [list(t.vertices())]))
        assert wq.graph.vertex_count == 1
        assert wq.weights == (t.vertex_count,)

    def test_rejects_non_tree(self):
        g = complete_graph(4)
        with pytest.raises(NotATree):
            weighted_partition_tree(singleton_partition(g))

    @given(seeds)
    def test_weights_account_for_every_vertex(self, seed):
        t = seeded_tree(seed, min_n=2, max_n=50)
        p = outward_contraction(t, seed % t.vertex_count)
        wq, _ = weighted_partition_tree(p)
        assert sum(wq.weights) == t.vertex_count


class TestMedianRecovery:
    def test_singleton_blocks_recover_median_exactly(self):
        t = seeded_tree(8, min_n=2)
        assert locate_median_via_partition(singleton_partition(t)) == median(t)

    @given(seeds)
    def test_every_median_block_contains_a_true_median_vertex(self, seed):
        t = seeded_tree(seed, min_n=1, max_n=40)
        p = (
            outward_contraction(t, seed % t.vertex_count)
            if seed % 2
            else random_partition(t, seed)
        )
        wq, _ = weighted_partition_tree(p)
        true_median = set(median(t))
        for b in weighted_median(wq):
            assert true_median.intersection(p.blocks[b])

    @pytest.mark.parametrize("kind", ["outward", "random", "hub"])
    def test_median_blocks_are_the_weighted_quotient_median(self, kind):
        for t, p in criterion_12_cases(kind):
            pg = build_partition_graph(p)
            blocks = _median_blocks(pg)
            wq, _ = weighted_partition_tree(p)
            assert blocks == [p.blocks[b] for b in weighted_median(wq)]
            union = tuple(sorted(v for blk in blocks for v in blk))
            assert locate_median_via_partition(p) == union
            true_median = set(median(t))
            assert blocks and all(true_median.intersection(blk) for blk in blocks)
            assert median_preserved(pg, median(t))
            outside = [v for v in t.vertices() if v not in union]
            assert not median_preserved(pg, outside[:1])

    def test_weights_are_necessary(self):
        # Hub with six leaves and a tail of four; rooted at the tail tip,
        # outward contraction buries the median in the heaviest block.
        hub = 0
        edges = [(hub, leaf) for leaf in range(1, 7)]
        edges += [(0, 7), (7, 8), (8, 9), (9, 10)]
        t = Graph(11, edges)
        assert median(t) == (0,)
        p = outward_contraction(t, 10)
        wq, _ = weighted_partition_tree(p)
        unweighted_median_blocks = median(wq.graph)
        assert all(
            not set(p.blocks[b]) & {0} for b in unweighted_median_blocks
        )
        weighted_blocks = weighted_median(wq)
        assert all(0 in p.blocks[b] for b in weighted_blocks)
        assert 0 in locate_median_via_partition(p)
