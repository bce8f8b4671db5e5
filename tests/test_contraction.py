import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import seeded_tree
from qiso import contraction
from qiso.contraction import (
    _center_kept,
    _outward_blocks,
    composition_center_shift,
    composition_partition,
    first_center_shifting_root,
    outward_contraction,
    restrict_to_path,
    root_tree,
    turning_point,
    unbounded_shift_family,
)
from qiso.errors import (
    EmptyComposition,
    InvalidComposition,
    InvalidPath,
    InvalidVertex,
    NotATree,
    NotContiguous,
)
from qiso.generators import cycle_graph, path_graph, random_tree, star_graph
from qiso.graph import (
    bfs_distances,
    center,
    diameter_path,
    eccentricity_profile,
    set_distance,
)
from qiso.partition import (
    Partition,
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    singleton_partition,
    sharpness_report,
)
from qiso.quasi import center_shift

seeds = st.integers(min_value=0, max_value=10_000)


def direct_shift(g, p):
    """Measure the center displacement with the plain BFS toolbox."""
    pg = build_partition_graph(p)
    quotient_center = set(center(pg.quotient))
    preimage = [v for v in g.vertices() if p.block_of[v] in quotient_center]
    return set_distance(g, center(g), preimage)


def tree_path(t, a, b):
    """The unique simple path between two vertices of a tree."""
    dist = bfs_distances(t, a)
    path = [b]
    while path[-1] != a:
        v = path[-1]
        path.append(next(u for u in t.neighbors(v) if dist[u] == dist[v] - 1))
    path.reverse()
    return path


class TestRooting:
    def test_rejects_non_tree(self):
        with pytest.raises(NotATree):
            root_tree(cycle_graph(4), 0)

    def test_rejects_bad_root(self):
        with pytest.raises(InvalidVertex):
            root_tree(path_graph(3), 5)

    @given(seeds)
    def test_levels_differ_by_one_across_edges(self, seed):
        t = seeded_tree(seed, min_n=2)
        rt = root_tree(t, seed % t.vertex_count)
        assert rt.level[rt.root] == 0
        for u, v in t.edges():
            assert abs(rt.level[u] - rt.level[v]) == 1


class TestOutwardContraction:
    def test_path5_rooted_at_end(self):
        assert outward_contraction(path_graph(5), 0).blocks == ((0, 1), (2, 3), (4,))

    def test_single_vertex(self):
        from qiso.graph import Graph

        assert outward_contraction(Graph(1), 0).blocks == ((0,),)

    def test_star_rooted_at_hub(self):
        p = outward_contraction(star_graph(7), 0)
        assert p.blocks == ((0, 1, 2, 3, 4, 5, 6),)
        assert oracles.induced_diameter(star_graph(7), p.blocks[0]) == 2

    @given(seeds)
    def test_two_sharp_with_star_shaped_blocks(self, seed):
        t = seeded_tree(seed, min_n=2, max_n=50)
        root = (seed * 7) % t.vertex_count
        p = outward_contraction(t, root)
        lev = root_tree(t, root).level
        for blk in p.blocks:
            assert oracles.induced_diameter(t, blk) <= 2
            anchors = [v for v in blk if lev[v] % 2 == 0]
            assert len(anchors) == 1
            assert all(t.adjacent(anchors[0], v) for v in blk if v != anchors[0])

    @given(seeds)
    def test_center_preserved(self, seed):
        t = seeded_tree(seed, min_n=1, max_n=60)
        root = seed % t.vertex_count
        assert direct_shift(t, outward_contraction(t, root)) == 0


class TestTurningPoint:
    def test_root_to_leaf_is_monotone(self):
        t = path_graph(6)
        rt = root_tree(t, 0)
        assert turning_point(rt, [0, 1, 2, 3]) is None
        assert turning_point(rt, [4, 3, 2]) is None

    def test_leaf_to_leaf_through_root(self):
        t = star_graph(5)
        rt = root_tree(t, 0)
        assert turning_point(rt, [1, 0, 2]) == 0

    def test_rejects_repeated_vertex(self):
        rt = root_tree(path_graph(3), 0)
        with pytest.raises(InvalidPath):
            turning_point(rt, [0, 1, 0])

    def test_rejects_non_adjacent_step(self):
        rt = root_tree(path_graph(4), 0)
        with pytest.raises(InvalidPath):
            turning_point(rt, [0, 2])

    @given(seeds)
    def test_matches_level_scan(self, seed):
        t = seeded_tree(seed, min_n=2, max_n=50)
        rng = random.Random(seed)
        rt = root_tree(t, rng.randrange(t.vertex_count))
        a, b = rng.sample(range(t.vertex_count), 2)
        path = tree_path(t, a, b)
        levels = [rt.level[v] for v in path]
        scan = [
            path[i]
            for i in range(1, len(path) - 1)
            if levels[i - 1] > levels[i] < levels[i + 1]
        ]
        assert len(scan) <= 1
        monotone = all(x < y for x, y in zip(levels, levels[1:])) or all(
            x > y for x, y in zip(levels, levels[1:])
        )
        got = turning_point(rt, path)
        if monotone:
            assert got is None
        else:
            assert [got] == scan


class TestRestrictToPath:
    def test_singleton_blocks(self):
        t = path_graph(5)
        assert restrict_to_path(singleton_partition(t), [0, 1, 2, 3, 4]) == [1] * 5

    def test_outward_on_path_rooted_at_end(self):
        t = path_graph(9)
        p = outward_contraction(t, 0)
        parts = restrict_to_path(p, list(range(9)))
        assert sum(parts) == 9
        assert set(parts) <= {1, 2}

    @given(seeds)
    def test_diameter_path_parts(self, seed):
        t = seeded_tree(seed, min_n=2, max_n=50)
        root = (seed * 13) % t.vertex_count
        p = outward_contraction(t, root)
        rt = root_tree(t, root)
        dpath = diameter_path(t)
        parts = restrict_to_path(p, dpath)
        assert set(parts) <= {1, 2, 3}
        if 3 in parts:
            turn = turning_point(rt, dpath)
            assert turn is not None
            run_start = 0
            for size in parts:
                segment = dpath[run_start : run_start + size]
                if size == 3:
                    assert turn in segment
                run_start += size

    def test_non_contiguous_rejected(self):
        c4 = cycle_graph(4)
        p = Partition(c4, [[0, 2, 3], [1]])
        with pytest.raises(NotContiguous):
            restrict_to_path(p, [0, 1, 2])


class TestCompositionShift:
    def test_worked_example(self):
        # Center indices 3 and 4: sigma 4, lambda 6, rho 4, so no shift.
        assert composition_center_shift([3, 3, 2, 2, 3, 1]) == 0

    def test_single_part(self):
        assert composition_center_shift([14]) == 0

    def test_one_one_five(self):
        assert composition_center_shift([1, 1, 5]) == 2
        g, p = composition_partition([1, 1, 5])
        assert direct_shift(g, p) == 2

    def test_blocks_are_the_parts_in_order(self):
        # A path's center shift is the same for a composition and its
        # reverse, so only the blocks tell the two apart.
        for parts in ([1], [2, 1], [1, 1, 5], [3, 3, 2, 2, 3, 1]):
            g, p = composition_partition(parts)
            ends = [sum(parts[:i]) for i in range(len(parts) + 1)]
            assert p.blocks == tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))
            assert restrict_to_path(p, g.vertices()) == parts

    def test_rejects_empty(self):
        with pytest.raises(EmptyComposition):
            composition_center_shift([])

    def test_rejects_nonpositive_part(self):
        with pytest.raises(InvalidComposition):
            composition_center_shift([2, 0, 1])

    def test_exhaustive_small_totals(self):
        def compositions(total):
            if total == 0:
                yield []
                return
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield [first] + rest

        for total in range(1, 11):
            for parts in compositions(total):
                g, p = composition_partition(parts)
                assert composition_center_shift(parts) == direct_shift(g, p), parts

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    def test_matches_direct_measurement(self, parts):
        g, p = composition_partition(parts)
        assert composition_center_shift(parts) == direct_shift(g, p)


class TestUnboundedShiftFamily:
    def test_small_members(self):
        for t in (1, 2, 5):
            g, p = unbounded_shift_family(t)
            assert g.vertex_count == 4 * t + 1
            assert direct_shift(g, p) == t
            assert sharpness_report(p).sharpness == 2

    def test_rejects_zero(self):
        with pytest.raises(InvalidComposition):
            unbounded_shift_family(0)


class TestCenterWitnessGeometry:
    @given(seeds)
    def test_nearest_center_has_witness_behind_it(self, seed):
        # Walking from any vertex to its closest center vertex and on to a
        # suitable eccentricity witness never backtracks.
        t = seeded_tree(seed, min_n=2, max_n=40)
        prof = eccentricity_profile(t)
        ctr = center(t)
        for v in t.vertices():
            dist_v = bfs_distances(t, v)
            c = min(ctr, key=lambda x: dist_v[x])
            dist_c = bfs_distances(t, c)
            assert any(
                dist_v[w] == dist_v[c] + dist_c[w] for w in prof.witnesses[c]
            )


def _rotated(collapse):
    """Per-root blocks of ``collapse`` swept from the root onwards.

    Outward contraction never moves a tree's center; rotated collapses
    often do, so they give the all-roots check failing roots to find.
    """

    def blocks(t, root):
        return collapse(t, [(root + i) % t.vertex_count for i in t.vertices()])

    return blocks


ROTATED = [_rotated(collapse_basic), _rotated(collapse_modified)]


def _all_roots_trees():
    yield from (seeded_tree(seed, min_n=1, max_n=40) for seed in range(120))
    yield from (path_graph(n) for n in range(1, 10))
    yield from (star_graph(n) for n in range(2, 9))


def _hang(t, root):
    """Vertices by level from ``root``, and each one's neighbour a level up."""
    lev = bfs_distances(t, root)
    order = sorted(t.vertices(), key=lev.__getitem__)
    parent = [-1] * t.vertex_count
    for v in order[1:]:
        parent[v] = next(u for u in t.adjacency[v] if lev[u] == lev[v] - 1)
    return order, parent


def _rules(t, seed):
    """Per-vertex head rules: every vertex, none, and random ones at three densities."""
    rng = random.Random(seed)
    yield [1] * t.vertex_count
    yield [0] * t.vertex_count
    for density in (0.25, 0.5, 0.75):
        yield [int(rng.random() < density) for _ in t.vertices()]


def _first_false(verdicts):
    return next((r for r, kept in enumerate(verdicts) if not kept), None)


class TestAllRoots:
    def test_outward_blocks_match_outward_contraction(self):
        for t in _all_roots_trees():
            for root in t.vertices():
                blocks = {}
                for v, head in enumerate(_outward_blocks(t, root)):
                    blocks.setdefault(head, []).append(v)
                assert all(head in blk for head, blk in blocks.items())
                expected = oracles.outward_blocks(t, root)
                assert sorted(map(tuple, blocks.values())) == sorted(expected)
                assert list(outward_contraction(t, root).blocks) == expected

    def test_keeps_center_matches_center_shift(self):
        # The second oracle against the quotient's measured center shift.
        verdicts = set()
        for t in _all_roots_trees():
            src_center = center(t)
            for root in t.vertices():
                order, parent = _hang(t, root)
                outward = _outward_blocks(t, root)
                assert oracles.keeps_center(order, parent, outward, src_center)
                for blocks in ROTATED:
                    p = blocks(t, root)
                    kept = center_shift(build_partition_graph(p).mapping).shift == 0
                    assert oracles.keeps_center(order, parent, p.block_of, src_center) == kept
                    verdicts.add(kept)
        assert verdicts == {True, False}

    def test_center_kept_matches_keeps_center(self):
        # One-center and two-center trees each meet both verdicts: the
        # second center's pass computes eccentricities alone.
        trees = list(_all_roots_trees()) + [random_tree(n, n) for n in (97, 150, 233)]
        verdicts = set()
        for seed, t in enumerate(trees):
            src_center = center(t)
            hung = [_hang(t, root) for root in t.vertices()]
            for w in _rules(t, seed):
                blocks = oracles.rule_blocks(w)
                expected = [
                    oracles.keeps_center(*hung[r], blocks(t, r).block_of, src_center)
                    for r in t.vertices()
                ]
                assert _center_kept(t, w) == expected
                verdicts.update((len(src_center), kept) for kept in expected)
        assert verdicts == {(1, True), (1, False), (2, True), (2, False)}

    def test_first_root_matches_oracle_loop(self):
        # Random rules give failing roots, which outward contraction never has.
        witnesses = set()
        for seed, t in enumerate(_all_roots_trees()):
            assert first_center_shifting_root(t) is None
            assert oracles.first_center_shifting_root(t, outward_contraction) is None
            for w in _rules(t, seed):
                expected = oracles.first_center_shifting_root(t, oracles.rule_blocks(w))
                assert _first_false(_center_kept(t, w)) == expected
                witnesses.add(expected is None)
        assert witnesses == {True, False}

    def test_colours_combine_to_first_root(self, monkeypatch):
        # Each colour's roots get their own random rule in place of the
        # outward one; the first failing root over both must be the oracle's.
        center_kept = contraction._center_kept
        witnesses = set()
        for seed, t in enumerate(_all_roots_trees()):
            rule_of, blocks = oracles.colour_rules(t, seed)
            monkeypatch.setattr(
                contraction, "_center_kept", lambda t, w: center_kept(t, rule_of[tuple(w)])
            )
            expected = oracles.first_center_shifting_root(t, blocks)
            assert first_center_shifting_root(t) == expected
            witnesses.add(expected is None)
        assert witnesses == {True, False}

    @pytest.mark.parametrize(
        "make", [lambda n: random_tree(n, 7), path_graph, star_graph], ids=["random", "path", "star"]
    )
    def test_large_trees_keep_center(self, make):
        assert first_center_shifting_root(make(10**4)) is None

    def test_rejects_non_tree(self):
        with pytest.raises(NotATree):
            first_center_shifting_root(cycle_graph(5))
