import importlib
import inspect
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qiso
from helpers import assert_validated_equal, seeded_graph, seeded_tree
from oracles import (
    collapse_modified_blocks,
    first_disconnected_block,
    floyd_warshall,
    induced_diameter,
    longest_simple_cycle,
    q1_witness,
)
from qiso import partition
from qiso.contraction import composition_partition, outward_contraction
from qiso.errors import BlockNotConnected, InvalidMapping, InvalidVertex, NotAPartition
from qiso.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_partition,
    star_graph,
)
from qiso.graph import Graph, bfs_distances, distance, distance_matrix
from qiso.mis import greedy_mis, mis_derived
from qiso.partition import (
    Partition,
    PartitionGraph,
    SharpnessReport,
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    sharpness_report,
    singleton_partition,
    verify_partition_qiso,
)
from qiso.quasi import VertexMapping

seeds = st.integers(min_value=0, max_value=10_000)


def coarsened(p, seed, rounds):
    """``p`` with its blocks merged by a random partition of its quotient, ``rounds`` times.

    Blocks joined in the quotient are joined in the graph, so each merged
    block stays connected; each round keeps about half the cross edges.
    """
    for r in range(rounds):
        outer = random_partition(build_partition_graph(p).quotient, seed + r)
        p = Partition(p.graph, [[v for b in blk for v in p.blocks[b]] for blk in outer.blocks])
    return p


class TestPartitionValidation:
    def test_rejects_overlap(self):
        with pytest.raises(NotAPartition):
            Partition(path_graph(3), [[0, 1], [1, 2]])

    def test_rejects_missing_vertex(self):
        with pytest.raises(NotAPartition):
            Partition(path_graph(3), [[0, 1]])

    def test_rejects_empty_block(self):
        with pytest.raises(NotAPartition):
            Partition(path_graph(2), [[0, 1], []])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidVertex):
            Partition(path_graph(2), [[0, 1, 5]])

    def test_rejects_disconnected_block(self):
        with pytest.raises(BlockNotConnected):
            Partition(path_graph(3), [[0, 2], [1]])

    @staticmethod
    def _labelled_blocks(g, rng):
        """Blocks from a random labelling, or from a random partition with one
        vertex moved; listed in shuffled order with shuffled members."""
        if rng.random() < 0.5:
            k = rng.randint(1, g.vertex_count)
            labels = [rng.randrange(k) for _ in g.vertices()]
        else:
            p = random_partition(g, rng.randrange(10**6))
            labels = list(p.block_of)
            if len(p.blocks) > 1:
                labels[rng.randrange(g.vertex_count)] = rng.randrange(len(p.blocks))
        groups = {}
        for v, b in enumerate(labels):
            groups.setdefault(b, []).append(v)
        blocks = list(groups.values())
        rng.shuffle(blocks)
        for blk in blocks:
            rng.shuffle(blk)
        return blocks

    def test_connectivity_matches_per_block_oracle(self):
        outcomes = set()
        for seed in range(300):
            rng = random.Random(seed)
            g = seeded_tree(seed, min_n=2) if seed % 2 else seeded_graph(seed)
            blocks = self._labelled_blocks(g, rng)
            first = first_disconnected_block(g, blocks)
            outcomes.add(first is None)
            if first is None:
                p = Partition(g, blocks)
                assert p.blocks == tuple(tuple(sorted(blk)) for blk in blocks)
            else:
                with pytest.raises(BlockNotConnected) as exc:
                    Partition(g, blocks)
                message = f"block {first} does not induce a connected subgraph"
                assert str(exc.value) == message
        assert outcomes == {True, False}

    def test_tree_count_matches_per_block_oracle(self, monkeypatch):
        # A tree's blocks are checked by one count of the edges inside
        # them; the search over them runs only to name a disconnected one.
        searches = []
        search = partition._bfs
        monkeypatch.setattr(partition, "_bfs", lambda *a: searches.append(a) or search(*a))
        trees = [path_graph(n) for n in (1, 2, 3, 8)] + [star_graph(n) for n in (3, 9)]
        trees += [seeded_tree(seed) for seed in range(80)]
        outcomes = set()
        for i, t in enumerate(trees):
            rng = random.Random(i)
            n = t.vertex_count
            dist = bfs_distances(t, 0)
            route = [n - 1]  # from n - 1 to the root, vertex 0
            while route[-1]:
                route.append(next(u for u in t.adjacency[route[-1]] if dist[u] < dist[route[-1]]))
            # Vertices 0 and n - 1 share a block in the first three: a count
            # that took the root's missing parent for index -1 would read
            # one edge too many there.
            cases = [
                [list(t.vertices())],
                [route] + [[v] for v in t.vertices() if v not in route],
                [sorted({0, n - 1})] + [[v] for v in range(1, n - 1)],
                outward_contraction(t, rng.randrange(n)).blocks,
                self._labelled_blocks(t, rng),
                self._labelled_blocks(t, rng),
            ]
            for blocks in cases:
                first = first_disconnected_block(t, blocks)
                outcomes.add(first is None)
                searches.clear()
                if first is None:
                    assert Partition(t, blocks).blocks == tuple(map(tuple, map(sorted, blocks)))
                    assert not searches
                else:
                    message = f"^block {first} does not induce a connected subgraph$"
                    with pytest.raises(BlockNotConnected, match=message):
                        Partition(t, blocks)
        assert outcomes == {True, False}

    def test_block_of_is_consistent(self):
        p = Partition(path_graph(4), [[2, 3], [0, 1]])
        assert p.block_of == (1, 1, 0, 0)
        assert p.blocks == ((2, 3), (0, 1))


class TestQuotient:
    def test_singleton_blocks_reproduce_graph(self):
        g = seeded_graph(3)
        pg = build_partition_graph(singleton_partition(g))
        assert pg.quotient == g
        assert pg.mapping.image == tuple(g.vertices())

    def test_single_block_collapses_to_point(self):
        g = seeded_graph(4)
        pg = build_partition_graph(Partition(g, [list(g.vertices())]))
        assert pg.quotient.vertex_count == 1

    def test_mapping_source_is_partition_graph(self):
        g = seeded_graph(5)
        for p in (singleton_partition(path_graph(3)), collapse_basic(g)):
            assert build_partition_graph(p).mapping.source is p.graph

    def test_tree_retention(self):
        for seed in range(40):
            t = seeded_tree(seed, min_n=2, max_n=40)
            pg = build_partition_graph(random_partition(t, seed))
            assert pg.quotient.is_tree

    @given(seeds)
    def test_quotient_never_stretches_distances(self, seed):
        g = seeded_graph(seed, max_n=20)
        p = random_partition(g, seed * 3 + 1)
        pg = build_partition_graph(p)
        qrows = [bfs_distances(pg.quotient, b) for b in pg.quotient.vertices()]
        for x in g.vertices():
            row = bfs_distances(g, x)
            for y in g.vertices():
                assert qrows[p.block_of[x]][p.block_of[y]] <= row[y]

    @given(seeds)
    def test_cycle_lengths_never_grow(self, seed):
        g = seeded_graph(seed, min_n=4, max_n=10)
        pg = build_partition_graph(random_partition(g, seed + 17))
        assert longest_simple_cycle(pg.quotient) <= longest_simple_cycle(g)


def _shuffled(g, i):
    return random.Random(i).sample(range(g.vertex_count), g.vertex_count)


def _reversed(g, i):
    return range(g.vertex_count - 1, -1, -1)


class TestTrustedQuotient:
    """Partitions and quotients are built unchecked; each must equal the validated one."""

    PARTITIONS = {
        "singleton": lambda g, i: singleton_partition(g),
        "whole": lambda g, i: Partition(g, [list(g.vertices())]),
        "collapse": lambda g, i: collapse_basic(g),
        "collapse-modified": lambda g, i: collapse_modified(g),
        "outward": lambda g, i: outward_contraction(g, i % g.vertex_count),
        "random": lambda g, i: random_partition(g, i),
        "composition": lambda g, i: composition_partition(
            [random.Random(i).randint(1, 4) for _ in range(1 + g.vertex_count // 4)]
        )[1],
        "collapse-shuffled": lambda g, i: collapse_basic(g, _shuffled(g, i)),
        "collapse-reversed": lambda g, i: collapse_basic(g, _reversed(g, i)),
        "collapse-modified-shuffled": lambda g, i: collapse_modified(g, _shuffled(g, i)),
        "collapse-modified-reversed": lambda g, i: collapse_modified(g, _reversed(g, i)),
    }

    @pytest.mark.parametrize("kind", list(PARTITIONS))
    def test_equals_validated_build(self, kind):
        graphs = [path_graph(n) for n in (1, 2, 3)]
        graphs += [seeded_tree(seed, min_n=1, max_n=60) for seed in range(60)]
        if kind != "outward":
            graphs += [cycle_graph(3), complete_graph(5), star_graph(9)]
            graphs += [seeded_graph(seed, min_n=1, max_n=60) for seed in range(60)]
        for i, g in enumerate(graphs):
            p = self.PARTITIONS[kind](g, i)
            g = p.graph  # a composition brings its own path
            validated = Partition(g, p.blocks)
            assert (validated.blocks, validated.block_of) == (p.blocks, p.block_of)
            assert first_disconnected_block(g, p.blocks) is None
            block_of = p.block_of
            cross = {
                (min(block_of[u], block_of[v]), max(block_of[u], block_of[v]))
                for u, v in g.edges()
                if block_of[u] != block_of[v]
            }
            assert_validated_equal(build_partition_graph(p).quotient, cross)


class TestSharpness:
    def test_singleton_report(self):
        g = seeded_graph(6)
        rep = sharpness_report(singleton_partition(g))
        assert rep.sharpness == 0 and rep.coarseness == 0
        assert rep.compression_ratio == 1

    def test_induced_diameter_uses_block_subgraph(self):
        # In C6 the block {0, 1, 5} induces a path through 0, diameter 2.
        c6 = cycle_graph(6)
        assert induced_diameter(c6, (0, 1, 5)) == 2
        assert induced_diameter(c6, ()) == 0

    def test_induced_diameter_matches_floyd_warshall(self, monkeypatch):
        # The oracle's search from every member, against Floyd-Warshall.
        cases = []
        for seed in range(60):
            t = seeded_tree(seed, min_n=1, max_n=40)
            cases += [(t, collapse_basic(t)), (t, collapse_modified(t))]
            cases += [(t, outward_contraction(t, r)) for r in t.vertices()]
            g = seeded_graph(seed, max_n=30)
            cases += [(g, collapse_basic(g)), (g, collapse_modified(g))]
        for g, p in cases:
            for blk in p.blocks:
                index = {v: i for i, v in enumerate(blk)}
                inner = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
                expected = max(map(max, floyd_warshall(Graph(len(blk), inner))))
                assert induced_diameter(g, blk) == expected
        assert induced_diameter(star_graph(400), range(400)) == 2
        # Off trees sharpness_report measures every block in one sweep;
        # the search per member is its reference, at every chunk width.
        graphs = [seeded_graph(seed, max_n=30) for seed in range(40)]
        graphs += [seeded_graph(seed, min_n=66, max_n=140) for seed in range(6)]
        graphs = [g for g in graphs if not g.is_tree] + [cycle_graph(70), complete_graph(9)]
        assert len(graphs) > 40
        for chunk in (1, 63, 64, 65, "n-1"):
            for seed, g in enumerate(graphs):
                n = g.vertex_count
                monkeypatch.setattr("qiso.graph._CHUNK", n - 1 if chunk == "n-1" else chunk)
                parts = [singleton_partition(g), Partition(g, [list(g.vertices())])]
                parts += [collapse_basic(g), collapse_modified(g)]
                parts += [coarsened(random_partition(g, seed), seed, r) for r in (0, 1, 3)]
                for p in parts:
                    diameters = [induced_diameter(g, blk) for blk in p.blocks]
                    assert sharpness_report(p) == SharpnessReport(
                        max(diameters), min(diameters), Fraction(len(p.blocks), n)
                    ), (g, p, chunk)

    def test_tree_report_matches_induced_diameters(self):
        # The one pass over a tree against a search per block.
        trees = [seeded_tree(seed, min_n=1, max_n=40) for seed in range(60)]
        trees += [path_graph(n) for n in (1, 2, 3, 9)] + [star_graph(n) for n in (2, 3, 9)]
        for seed, t in enumerate(trees):
            n = t.vertex_count
            rotated = [(n // 2 + i) % n for i in range(n)]
            parts = [outward_contraction(t, r) for r in {0, n // 3, n // 2, n - 1}]
            parts += [collapse_basic(t), collapse_modified(t)]
            parts += [collapse_basic(t, rotated), collapse_modified(t, rotated)]
            parts += [singleton_partition(t), Partition(t, [list(t.vertices())])]
            parts += [coarsened(random_partition(t, seed), seed, r) for r in (0, 1, 3)]
            for p in parts:
                diameters = [induced_diameter(t, blk) for blk in p.blocks]
                assert sharpness_report(p) == SharpnessReport(
                    max(diameters), min(diameters), Fraction(len(p.blocks), n)
                )

    def test_compression_bound(self):
        for seed in range(40):
            g = seeded_graph(seed, max_n=30)
            p = random_partition(g, seed)
            rep = sharpness_report(p)
            b = rep.coarseness
            assert len(p.blocks) * (b + 1) <= g.vertex_count or b == 0
            assert rep.compresses() == (len(p.blocks) * (b + 1) <= g.vertex_count)
            if b > 0:
                assert rep.compression_ratio <= Fraction(1, b + 1)
        assert SharpnessReport(2, 2, Fraction(1, 3)).compresses()
        assert not SharpnessReport(2, 2, Fraction(1, 2)).compresses()


class TestCollapseBasic:
    def test_star_is_one_block(self):
        assert collapse_basic(star_graph(7)).blocks == ((0, 1, 2, 3, 4, 5, 6),)

    def test_path6_pairs(self):
        assert collapse_basic(path_graph(6)).blocks == ((0, 1), (2, 3), (4, 5))

    @given(seeds)
    def test_two_sharp(self, seed):
        g = seeded_graph(seed, max_n=35)
        p = collapse_basic(g)
        assert all(induced_diameter(g, blk) <= 2 for blk in p.blocks)

    def test_custom_order(self):
        p = collapse_basic(path_graph(4), order=[3, 2, 1, 0])
        assert p.blocks == ((2, 3), (0, 1))

    @pytest.mark.parametrize("sweep", ["ascending", "descending", "shuffled"])
    def test_blocks_are_the_independent_set_fibers(self, sweep):
        # One greedy sweep gives both: under any order each block holds
        # exactly one member of greedy_mis, and under the default
        # (ascending) order the blocks are the fibers of mis_derived's
        # canonical mapping, in member order.
        graphs = [seeded_graph(seed, max_n=40) for seed in range(40)]
        graphs += [seeded_tree(seed, max_n=40) for seed in range(40)]
        graphs += [f(n) for f in (path_graph, star_graph, complete_graph) for n in (1, 2, 3, 7)]
        for i, g in enumerate(graphs):
            n = g.vertex_count
            order = {
                "ascending": None,
                "descending": range(n - 1, -1, -1),
                "shuffled": random.Random(i).sample(range(n), n),
            }[sweep]
            members = set(greedy_mis(g, order))
            blocks = collapse_basic(g, order).blocks
            assert [len(members.intersection(b)) for b in blocks] == [1] * len(blocks), g
            if order is None:
                m = mis_derived(g, greedy_mis(g)).mapping
                assert list(blocks) == [m.preimage([b]) for b in m.target.vertices()], g


class TestCollapseModified:
    def test_path7_trace(self):
        assert collapse_modified(path_graph(7)).blocks == ((0, 1), (2, 3, 4), (5, 6))

    def test_cycle6_two_triples(self):
        c6 = cycle_graph(6)
        p = collapse_modified(c6)
        assert p.blocks == ((0, 1, 5), (2, 3, 4))
        rep = sharpness_report(p)
        assert (rep.sharpness, rep.coarseness) == (2, 2)
        assert rep.compression_ratio == Fraction(1, 3)

    def test_single_edge_caveat(self):
        # Degenerate host: one block of diameter 1, so 2-coarseness fails.
        p = collapse_modified(path_graph(2))
        assert p.blocks == ((0, 1),)
        assert sharpness_report(p).coarseness == 1

    @given(seeds)
    def test_four_sharp(self, seed):
        g = seeded_graph(seed, max_n=35)
        p = collapse_modified(g)
        assert all(induced_diameter(g, blk) <= 4 for blk in p.blocks)

    @given(seeds, st.booleans())
    def test_matches_restart_scan(self, seed, shuffled):
        g = seeded_graph(seed, max_n=35)
        order = list(g.vertices())
        if shuffled:
            random.Random(seed).shuffle(order)
        expected = collapse_modified_blocks(g, order)
        got = collapse_modified(g, order if shuffled else None)
        assert got.blocks == Partition(g, expected).blocks

    def test_matches_restart_scan_on_seeded_graphs(self):
        # The property above on fixed seeds, in ascending, descending and
        # shuffled sweeps.
        for seed in range(60):
            g = seeded_graph(seed, max_n=35)
            for order in (range(g.vertex_count), _reversed(g, seed), _shuffled(g, seed)):
                expected = Partition(g, collapse_modified_blocks(g, order))
                assert collapse_modified(g, order).blocks == expected.blocks, (seed, order)


class TestQuasiIsometryGuarantee:
    def test_singleton_partition(self):
        g = seeded_graph(9)
        assert verify_partition_qiso(build_partition_graph(singleton_partition(g)))

    def test_collapse_ensembles(self):
        for seed in range(25):
            g = seeded_graph(seed, max_n=30)
            for builder in (collapse_basic, collapse_modified):
                assert verify_partition_qiso(build_partition_graph(builder(g)))

    def test_random_partitions(self):
        for seed in range(15):
            g = seeded_graph(seed, max_n=25)
            p = random_partition(g, seed + 100)
            assert verify_partition_qiso(build_partition_graph(p))

    @staticmethod
    def _fake_quotient(g, target):
        """A singleton partition of ``g`` whose quotient is claimed to be ``target``."""
        mapping = VertexMapping(g, target, range(g.vertex_count))
        return PartitionGraph(target, mapping, singleton_partition(g))

    def test_rejects_stretching_quotient(self):
        # Dropping one edge of a triangle lengthens only paths through it,
        # each by one hop: the band at (0 + 1, 1) would hold, but the
        # mapping stretches the dropped edge, so it is never built.
        g = seeded_graph(0)
        u, v = next(
            (u, v) for u, v in g.edges() if set(g.adjacency[u]) & set(g.adjacency[v])
        )
        target = Graph(g.vertex_count, set(g.edges()) - {(u, v)})
        assert distance(target, u, v) == 2
        message = rf"^edge \({u}, {v}\) is stretched: {u} and {v} are not adjacent$"
        with pytest.raises(InvalidMapping, match=message):
            self._fake_quotient(g, target)

    def test_rejects_quotient_outside_band(self):
        # A shortcut between two vertices four hops apart shrinks distances
        # only, so never-stretch holds while the band at (0 + 1, 1) fails.
        g = seeded_graph(0)
        far = bfs_distances(g, 0).index(4)
        pg = self._fake_quotient(g, Graph(g.vertex_count, g.edges() + [(0, far)]))
        assert (distance_matrix(pg.quotient) <= distance_matrix(g)).all()
        assert q1_witness(pg.mapping, 1, 1) is not None
        assert not verify_partition_qiso(pg)


class TestRandomPartition:
    def test_deterministic(self):
        g = seeded_graph(14)
        assert random_partition(g, 5).blocks == random_partition(g, 5).blocks

    @given(seeds)
    def test_valid_over_host(self, seed):
        g = seeded_graph(seed, max_n=30)
        p = random_partition(g, seed ^ 0xC0FFEE)
        assert sorted(v for blk in p.blocks for v in blk) == list(g.vertices())


def test_no_public_function_takes_a_graph_beside_a_partition():
    # A partition fixes its graph, so a second graph parameter could only
    # disagree with it. Classes are exempt: a Partition is built from its graph.
    both = []
    for info in pkgutil.iter_modules(qiso.__path__):
        module = importlib.import_module(f"qiso.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters.values()
            if {"Graph", "Partition"} <= {param.annotation for param in params}:
                both.append(f"{module.__name__}.{name}")
    assert both == []
