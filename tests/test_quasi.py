import ast
import functools
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import qiso
from helpers import seeded_graph, seeded_tree
from oracles import (
    ecc_transfer_holds,
    first_stretched_edge,
    floyd_warshall,
    minimal_additive,
    q1_witness,
)
from passes import CallCounter
from qiso.contraction import outward_contraction
from qiso.errors import (
    BlockNotConnected,
    InvalidConstants,
    InvalidMapping,
    InvalidVertex,
    NotSurjective,
    PreconditionViolated,
    TooLarge,
)
from qiso.generators import (
    complete_graph,
    cycle_graph,
    non_uniecc_chordal,
    path_graph,
    random_connected_graph,
    random_partition,
    random_tree,
    star_graph,
)
from qiso.graph import (
    Graph,
    _bfs_levels,
    _csr,
    _eccentricities,
    _source_bits,
    bfs_distances,
    center,
    distance_matrix,
    eccentricity_profile,
    set_distance,
    uni_ecc_holds,
)
from qiso.mis import greedy_mis, mis_derived
from qiso.partition import (
    Partition,
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    sharpness_report,
    singleton_partition,
    verify_partition_qiso,
)
from qiso.quasi import (
    QuasiIsometryConstants,
    VertexMapping,
    _block_maxima,
    _row_maxima,
    center_shift,
    identity_mapping,
    minimal_additive_for_stretch,
    minimal_constants,
    shift_bound_one_sided,
    shift_bound_two_sided,
    verify_ecc_transfer,
    verify_q1,
    verify_q2,
    verify_q2_raw,
)

seeds = st.integers(min_value=0, max_value=10_000)


def singleton_mapping(g):
    return VertexMapping(g, Graph(1), [0] * g.vertex_count)


def collapse_mapping(seed, max_n=30):
    g = seeded_graph(seed, max_n=max_n)
    return build_partition_graph(collapse_basic(g)).mapping


def quotient_and_mis_mappings():
    """A quotient and an independent-set mapping per seeded graph and tree."""
    mappings = []
    for seed in range(20):
        for g in (seeded_graph(seed, max_n=30), seeded_tree(seed, max_n=30)):
            mappings.append(build_partition_graph(collapse_modified(g)).mapping)
            mappings.append(mis_derived(g, greedy_mis(g)).mapping)
    return mappings


def rows_of(m, stretches, rows=_row_maxima):
    """``m``'s row maxima for each stretch in ``stretches``, in order.

    ``rows`` computes them: the dispatcher, or one kernel such as the
    block tables.
    """
    return [tuple(rows(m, stretch)) for stretch in stretches]


def grid_graph(rows, cols):
    """The rows x cols grid; two rows make a ladder with ``cols`` rungs."""
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    edges = [(r * cols + c, r * cols + c + 1) for r, c in cells if c + 1 < cols]
    edges += [(r * cols + c, (r + 1) * cols + c) for r, c in cells if r + 1 < rows]
    return Graph(rows * cols, edges)


@pytest.fixture(scope="module")
def cyclic_cases():
    """Graphs with cycles, each with its Floyd-Warshall matrix."""
    graphs = [seeded_graph(seed, min_n=4, max_n=150) for seed in range(40)]
    graphs += [cycle_graph(n) for n in range(3, 131)]
    graphs += [grid_graph(2, rungs) for rungs in range(2, 41)]
    graphs += [grid_graph(a, b) for a in range(3, 9) for b in range(a, 10)]
    graphs += [complete_graph(n) for n in (3, 4, 9, 70)]
    graphs.append(non_uniecc_chordal())
    for seed in range(40):
        g = seeded_graph(seed, min_n=20, max_n=120, density=4)
        for partition in (collapse_basic(g), collapse_modified(g)):
            graphs.append(build_partition_graph(partition).quotient)
    return [(g, floyd_warshall(g)) for g in graphs if not g.is_tree]


class TestConstants:
    def test_stretch_below_one_rejected(self):
        with pytest.raises(InvalidConstants):
            QuasiIsometryConstants(0, 0, 0)

    def test_negative_additive_rejected(self):
        with pytest.raises(InvalidConstants):
            QuasiIsometryConstants(1, -1, 0)

    def test_negative_density_rejected(self):
        with pytest.raises(InvalidConstants):
            QuasiIsometryConstants(1, 0, -1)


class TestVertexMapping:
    def test_rejects_wrong_length(self):
        with pytest.raises(NotSurjective):
            VertexMapping(path_graph(3), path_graph(2), [0, 1])

    def test_rejects_missed_target(self):
        with pytest.raises(NotSurjective):
            VertexMapping(path_graph(3), path_graph(2), [0, 0, 0])

    def test_rejects_images_out_of_range(self):
        # The first entry out of range names the error, whichever side it
        # is on; the length is checked before the range, and the range
        # before surjectivity.
        source, target = path_graph(6), path_graph(3)
        for image, bad in (([0, 1, -1, 2, 3, 2], -1), ([0, 2, 1, 3, 0, -2], 3)):
            with pytest.raises(InvalidVertex, match=rf"^vertex {bad} outside 0\.\.2$"):
                VertexMapping(source, target, image)
        with pytest.raises(NotSurjective, match="6 entries for 5 vertices"):
            VertexMapping(path_graph(5), target, [0, 1, -1, 2, 3, 2])
        with pytest.raises(InvalidVertex, match="vertex 3 outside"):
            VertexMapping(source, target, [0, 0, 0, 0, 0, 3])

    def test_preimage(self):
        m = VertexMapping(path_graph(4), path_graph(2), [0, 0, 1, 1])
        assert m.preimage([1]) == (2, 3)

    def test_rejects_stretched_edge(self):
        # Edges (0, 1) and (2, 3) of the path keep adjacent images; (1, 2)
        # goes to the ends of the target path. Surjectivity is checked first.
        source, target = path_graph(4), path_graph(4)
        with pytest.raises(
            InvalidMapping, match=r"^edge \(1, 2\) is stretched: 0 and 3 are not adjacent$"
        ):
            VertexMapping(source, target, [1, 0, 3, 2])
        with pytest.raises(NotSurjective):
            VertexMapping(source, target, [0, 2, 2, 0])
        assert VertexMapping(source, path_graph(2), [1, 0, 0, 1]).image == (1, 0, 0, 1)

    def test_names_first_stretched_edge(self):
        # Seeded surjective maps onto trees and graphs, against the pair
        # loop: a map that stretches an edge is refused, naming the first
        # one in row-major order, and any other keeps its image.
        rng = random.Random(11)
        refused = []
        for seed in range(200):
            g = seeded_graph(seed, max_n=20) if seed % 2 else seeded_tree(seed, max_n=20)
            k = rng.randrange(1, g.vertex_count + 1)
            if seed % 3:
                target = random_tree(k, seed)
            else:
                target = random_connected_graph(k, min(k * (k - 1) // 2, 2 * k), seed)
            image = list(range(k)) + [rng.randrange(k) for _ in range(g.vertex_count - k)]
            rng.shuffle(image)
            expected = first_stretched_edge(g, target, image)
            refused.append(expected is not None)
            if expected is None:
                assert VertexMapping(g, target, image).image == tuple(image)
                continue
            (u, v), (a, b) = expected, (image[expected[0]], image[expected[1]])
            message = rf"^edge \({u}, {v}\) is stretched: {a} and {b} are not adjacent$"
            with pytest.raises(InvalidMapping, match=message):
                VertexMapping(g, target, image)
        assert any(refused) and not all(refused)

    def test_constructions_pass_validation(self):
        # Quotients and derived graphs build their mappings unchecked; the
        # validating constructor accepts each one with the same image.
        mappings = quotient_and_mis_mappings()
        for seed in range(20):
            for g in (seeded_graph(seed, max_n=30), seeded_tree(seed, min_n=2, max_n=30)):
                partitions = [collapse_basic(g), random_partition(g, seed)]
                partitions += [singleton_partition(g), Partition(g, [list(g.vertices())])]
                mappings += [build_partition_graph(p).mapping for p in partitions]
                if g.is_tree:
                    mappings.append(build_partition_graph(outward_contraction(g, 0)).mapping)
        assert len(mappings) > 250
        for m in mappings:
            assert type(m.image) is tuple and all(type(y) is int for y in m.image)
            assert VertexMapping(m.source, m.target, m.image).image == m.image


class TestQ1:
    def test_identity_is_isometry(self):
        g = seeded_graph(2)
        assert verify_q1(identity_mapping(g), 1, 0).ok

    def test_q1_invalid_constants(self):
        with pytest.raises(InvalidConstants):
            verify_q1(identity_mapping(path_graph(3)), 0, 0)

    def test_witness_is_first_violation(self):
        m = collapse_mapping(17)
        res = verify_q1(m, 1, 0)
        assert not res.ok
        # Recompute the lexicographically first violating pair by brute force.
        g, h, img = m.source, m.target, m.image
        expected = None
        for x in range(g.vertex_count):
            if expected:
                break
            row = bfs_distances(g, x)
            for y in range(x + 1, g.vertex_count):
                d2 = bfs_distances(h, img[x])[img[y]]
                if row[y] > d2 or d2 > row[y]:
                    expected = (x, y)
                    break
        assert res.witness == expected

    @given(seeds, st.integers(1, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
    def test_monotone_in_constants(self, seed, a, b, da, db):
        m = collapse_mapping(seed, max_n=16)
        if verify_q1(m, a, b).ok:
            assert verify_q1(m, a + da, b + db).ok

    @given(seeds, st.integers(1, 3), st.integers(0, 1), st.booleans())
    def test_witness_matches_pair_loop(self, seed, a, b, tree):
        g = seeded_tree(seed, min_n=2, max_n=20) if tree else seeded_graph(seed, max_n=20)
        m = build_partition_graph(collapse_basic(g)).mapping
        res = verify_q1(m, a, b)
        expected = q1_witness(m, a, b)
        assert res.ok == (expected is None)
        assert res.witness == expected

    def test_zero_additive_forces_injectivity(self):
        # A mapping merging adjacent vertices fails with additive 0 at any stretch.
        m = collapse_mapping(23)
        assert len(set(m.image)) < m.source.vertex_count
        for a in range(1, 5):
            assert not verify_q1(m, a, 0).ok
        assert verify_q1(identity_mapping(m.source), 1, 0).ok


class TestQ2:
    def test_surjective_at_zero(self):
        assert verify_q2(collapse_mapping(5), 0)

    def test_monotone_in_density(self):
        assert verify_q2(collapse_mapping(5), 5)

    def test_raw_non_surjective(self):
        g = path_graph(5)
        assert not verify_q2_raw(g, [0, 1], 0)
        assert verify_q2_raw(g, [0, 1], 3)
        assert verify_q2_raw(g, [2], 2)

    def test_negative_density_rejected(self):
        with pytest.raises(InvalidConstants, match=r"^density must be >= 0, got -1$"):
            verify_q2_raw(path_graph(2), [0, 1], -1)
        with pytest.raises(InvalidConstants, match=r"^density must be >= 0, got -1$"):
            verify_q2(collapse_mapping(5), -1)

    def test_mapping_needs_no_search(self, monkeypatch):
        # A mapping is onto by construction, so verify_q2 searches nothing;
        # the raw search over the same images is its reference.
        mappings = quotient_and_mis_mappings()
        searches = [CallCounter(monkeypatch, mod, "_bfs") for mod in (qiso.graph, qiso.quasi)]
        verdicts = [verify_q2(m, density) for m in mappings for density in range(3)]
        assert [c.count for c in searches] == [0, 0]
        monkeypatch.undo()
        assert verdicts == [
            verify_q2_raw(m.target, m.image, density) for m in mappings for density in range(3)
        ]
        assert all(verdicts)


class TestMinimalConstants:
    def test_identity(self):
        g = seeded_graph(7)
        got = minimal_constants(identity_mapping(g))
        assert (got.stretch, got.additive, got.density) == (1, 0, 0)

    def test_collapse_to_singleton(self):
        g = seeded_graph(8)
        diam = eccentricity_profile(g).diameter
        got = minimal_constants(singleton_mapping(g))
        assert (got.stretch, got.additive, got.density) == (1, diam, 0)

    @given(seeds)
    def test_additive_matches_linear_scan(self, seed):
        # Independent oracle: smallest additive found by trying 0, 1, 2, ...
        m = collapse_mapping(seed, max_n=16)
        got = minimal_constants(m)
        b = 0
        while not verify_q1(m, 1, b).ok:
            b += 1
        assert got.additive == b

    @given(seeds, st.integers(1, 4))
    def test_stretch_frontier_is_tight(self, seed, a):
        m = collapse_mapping(seed, max_n=16)
        b = minimal_additive_for_stretch(m, a)
        assert verify_q1(m, a, b).ok
        if b > 0:
            assert not verify_q1(m, a, b - 1).ok

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            minimal_constants(identity_mapping(cycle_graph(2001)))

    @pytest.mark.parametrize("big", [2**62, 2**70])
    def test_huge_constants_stay_exact(self, big, cached_oracles, monkeypatch):
        # int64 arithmetic at these constants would wrap or overflow. The
        # path's quotient takes the tree DP; a cycle's collapse and an
        # independent set of a graph with cycles take the block kernel.
        g = seeded_graph(3, min_n=12)
        mappings = [
            build_partition_graph(collapse_basic(path_graph(10))).mapping,
            build_partition_graph(collapse_basic(cycle_graph(12))).mapping,
            mis_derived(g, greedy_mis(g)).mapping,
        ]
        assert not g.is_tree
        tables = CallCounter(monkeypatch, qiso.quasi, "_block_maxima")
        assert minimal_additive_for_stretch(mappings[0], big) == 1
        for m in mappings:
            assert minimal_additive_for_stretch(m, big) == minimal_additive(m, big)
            witnesses = set()
            for a, b in [(big, 0), (1, big), (big, big), (2, big)]:
                witness = verify_q1(m, a, b).witness
                assert witness == q1_witness(m, a, b)
                witnesses.add(witness)
            assert len(witnesses) == 2, m  # (big, 0) fails; the rest pass
            assert verify_ecc_transfer(m, big, 1) == ecc_transfer_holds(m, big, 1)
            assert verify_ecc_transfer(m, 1, big) == ecc_transfer_holds(m, 1, big)
        assert {id(m) for m, _ in tables.args} == {id(m) for m in mappings[1:]}


class TestEccTransfer:
    def test_identity_equality(self):
        g = seeded_graph(3)
        assert verify_ecc_transfer(identity_mapping(g), 1, 0)

    def test_requires_valid_constants(self):
        m = collapse_mapping(23)
        with pytest.raises(PreconditionViolated):
            verify_ecc_transfer(m, 1, 0)

    def test_outward_trees(self):
        for seed in range(25):
            t = seeded_tree(seed, min_n=2, max_n=40)
            pg = build_partition_graph(outward_contraction(t, 0))
            assert verify_ecc_transfer(pg.mapping, 3, 1)

    def test_collapse_at_minimal_constants(self):
        for seed in range(10):
            m = collapse_mapping(seed, max_n=20)
            cst = minimal_constants(m)
            assert verify_ecc_transfer(m, cst.stretch, cst.additive)

    def test_each_side_of_the_comparison_decides(self, monkeypatch):
        # The upper side, e'(f(x)) <= e(x), holds for every mapping: it is
        # onto and never stretches a distance. The lower side is compared:
        # the real eccentricities pass, and vertex 0's, pushed just past
        # that side, must fail the check.
        for m in quotient_and_mis_mappings():
            e1, e2 = _eccentricities(m.source), _eccentricities(m.target)
            assert all(e2[y] <= e1[x] for x, y in enumerate(m.image))
        t = seeded_tree(4, min_n=10, max_n=30)
        m = build_partition_graph(outward_contraction(t, 0)).mapping
        stretch, additive = 3, 1
        assert verify_ecc_transfer(m, stretch, additive)
        e1 = stretch * (_eccentricities(m.target)[m.image[0]] + additive) + 1

        def pushed(g):
            ecc = list(_eccentricities(g))
            if g is m.source:
                ecc[0] = e1
            return tuple(ecc)

        monkeypatch.setattr("qiso.quasi._eccentricities", pushed)
        assert not verify_ecc_transfer(m, stretch, additive)


class TestMappingPass:
    def test_edited_rows_change_no_later_verdict(self):
        # A mapping keeps no rows: each request computes them afresh, so
        # a caller that edits the rows it got changes no later verdict,
        # and every later verdict equals a fresh mapping's.
        t = seeded_tree(4, min_n=10, max_n=30)
        g = seeded_graph(5)
        stretches = [3, 1, 2]
        for make in (
            lambda: build_partition_graph(outward_contraction(t, 0)).mapping,
            lambda: build_partition_graph(collapse_basic(g)).mapping,
            lambda: mis_derived(g, greedy_mis(g)).mapping,
        ):
            m, fresh = make(), make()
            for stretch in stretches:
                row = _row_maxima(m, stretch)
                row[:] = [-1] * len(row)
            assert rows_of(m, stretches) == rows_of(fresh, stretches)
            assert verify_q1(m, 3, 1) == verify_q1(fresh, 3, 1)
            assert verify_q1(m, 1, 0).witness == verify_q1(fresh, 1, 0).witness
            assert verify_ecc_transfer(m, 3, 1) == verify_ecc_transfer(fresh, 3, 1)
            assert minimal_constants(m) == minimal_constants(fresh)


class TestShiftBounds:
    def test_isometry_bound_is_zero(self):
        assert shift_bound_two_sided(1, 0, 99) == 0
        assert shift_bound_one_sided(1, 0, 99) == 0

    def test_hand_values(self):
        assert shift_bound_two_sided(3, 1, 10) == 30
        assert shift_bound_two_sided(2, 0, 7) == Fraction(21, 2)
        assert shift_bound_one_sided(3, 1, 10) == 23

    def test_one_sided_never_exceeds_two_sided(self):
        for a in range(1, 6):
            for b in range(0, 5):
                for rad in range(0, 8):
                    assert shift_bound_one_sided(a, b, rad) <= shift_bound_two_sided(
                        a, b, rad
                    )


class TestDistanceMatrix:
    @given(seeds)
    def test_matches_bfs_rows(self, seed):
        g = seeded_graph(seed, max_n=25)
        mat = distance_matrix(g)
        for v in g.vertices():
            assert mat[v].tolist() == bfs_distances(g, v)

    def test_single_vertex(self):
        assert distance_matrix(Graph(1)).tolist() == [[0]]

    def test_size_guard(self, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("all-pairs matrix built above the size guard")

        assert distance_matrix(path_graph(2000)).shape == (2000, 2000)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        g = cycle_graph(2001)
        for fn in (distance_matrix, eccentricity_profile, uni_ecc_holds):
            with pytest.raises(TooLarge, match="guarded at 2000 vertices, got 2001"):
                fn(g)

    def test_tree_kernel_matches_floyd_warshall(self):
        trees = [seeded_tree(seed) for seed in range(80)]
        trees += [Graph(1), path_graph(2), path_graph(23), star_graph(23)]
        # Vertex 0 in a path's middle, a star's hub at n - 1, a broom (a
        # path ending in a star) and a caterpillar (a spine with two legs
        # per spine vertex), so subtrees are not ranges of labels.
        trees.append(Graph(23, [((p - 11) % 23, (p - 10) % 23) for p in range(22)]))
        trees.append(Graph(23, [(v, 22) for v in range(22)]))
        trees.append(Graph(23, [(v, v + 1) for v in range(7)] + [(7, v) for v in range(8, 23)]))
        trees.append(Graph(24, [(v, v + 1) for v in range(7)] + [(v, v % 8) for v in range(8, 24)]))
        for t in trees:
            assert distance_matrix(t).tolist() == floyd_warshall(t)

    @pytest.mark.parametrize("chunk", [1, 2, 7, "n-1"])
    def test_tree_kernel_in_row_chunks(self, monkeypatch, chunk):
        # The tree kernel does not depend on _CHUNK, the multi-source
        # search's chunk of sources.
        trees = [seeded_tree(seed, min_n=2) for seed in range(40)] + [path_graph(9)]
        for t in trees:
            n = t.vertex_count
            monkeypatch.setattr("qiso.graph._CHUNK", n - 1 if chunk == "n-1" else chunk)
            assert distance_matrix(Graph(n, t.edges())).tolist() == floyd_warshall(t), (t, chunk)

    @pytest.mark.parametrize("chunk", [1, 63, 64, 65, "n-1"])
    def test_bfs_kernel_matches_floyd_warshall(self, cyclic_cases, monkeypatch, chunk):
        for g, oracle in cyclic_cases:
            n = g.vertex_count
            monkeypatch.setattr("qiso.graph._CHUNK", n - 1 if chunk == "n-1" else chunk)
            mat = distance_matrix(Graph(n, g.edges()))  # a fresh, uncached copy
            assert mat.dtype == np.min_scalar_type(-n) and mat.flags.c_contiguous
            assert not mat.flags.writeable
            assert mat.tolist() == oracle, (g, chunk)

    def test_bfs_kernel_long_distances(self):
        # Distances above 255 take more than eight bit planes to assemble.
        for g in (cycle_graph(1100), grid_graph(2, 300)):
            mat = distance_matrix(g)
            assert [mat[v].tolist() for v in g.vertices()] == [
                bfs_distances(g, v) for v in g.vertices()
            ]

    @pytest.mark.parametrize("chunk", [64, "n-1"])
    def test_bfs_kernel_at_the_ninth_plane(self, monkeypatch, chunk):
        # Cycles of diameter 255 (510, 511) fill eight bit planes, one
        # byte; those of diameter 256 (512, 513) need a ninth.
        for n in range(510, 514):
            g = cycle_graph(n)
            monkeypatch.setattr("qiso.graph._CHUNK", n - 1 if chunk == "n-1" else chunk)
            mat = distance_matrix(g)
            assert mat.tolist() == [bfs_distances(g, v) for v in g.vertices()], (n, chunk)

    def test_bfs_levels_reach_each_vertex_once(self):
        # Level d sets source j's bit at v exactly when v lies at distance
        # d from j, and the search stops after the last level. At most n
        # levels are taken, so a search that never stops fails, not hangs.
        for g in (cycle_graph(9), grid_graph(3, 4), seeded_graph(3), complete_graph(4)):
            n = g.vertex_count
            dist = [bfs_distances(g, v) for v in g.vertices()]
            levels = list(islice(_bfs_levels(*_csr(g), range(n)), n))
            assert len(levels) == max(map(max, dist)), g
            for d, nxt in enumerate(levels, start=1):
                # _source_bits(nxt, n)[v, j]: j's search reaches v at level d
                expected = [[int(dist[j][v] == d) for j in range(n)] for v in range(n)]
                assert _source_bits(nxt, n).tolist() == expected, (g, d)

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129])
    def test_both_kernels_across_the_narrow_types(self, n):
        # int8 holds n up to 128, int16 from 129; on a 128-vertex path the
        # tree kernel's parent row plus one reaches 128 and wraps in int8.
        graphs = [path_graph(n), star_graph(n) if n > 1 else Graph(1)]
        graphs += [random_tree(n, seed) for seed in range(3)]
        if n >= 3:
            graphs += [cycle_graph(n), random_connected_graph(n, min(3 * n, n * (n - 1) // 2), n)]
        assert {g.is_tree for g in graphs} == ({True} if n < 3 else {True, False})
        for g in graphs:
            mat = distance_matrix(g)
            assert mat.dtype == np.min_scalar_type(-n) and mat.flags.c_contiguous
            assert not mat.flags.writeable
            assert mat.tolist() == [bfs_distances(g, v) for v in g.vertices()], g

    @pytest.mark.parametrize("kind", ["graph", "tree"])
    def test_peak_memory_below_one_int64_matrix(self, kind):
        # The one narrow store, at the size guard: the build never holds an
        # n x n int64 array (30.5 MiB at n = 2000).
        for seed in (7, 8):
            if kind == "tree":
                g = random_tree(2000, seed)
            else:
                g = random_connected_graph(2000, 6000, seed)
            tracemalloc.start()
            try:
                distance_matrix(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2000 * 2000 * np.dtype(np.int64).itemsize, (kind, seed, peak)

    def test_tree_kernel_peak_below_two_matrices(self):
        # Each row is written in vertex order from its parent's, in place,
        # so the build holds the matrix and O(n) more.
        g = random_tree(2000, 7)
        tracemalloc.start()
        try:
            mat = distance_matrix(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * mat.nbytes, (peak, mat.nbytes)

    def test_cached_and_read_only(self):
        for g in (seeded_graph(5), seeded_tree(5, min_n=2)):
            mat = distance_matrix(g)
            assert distance_matrix(g) is mat
            assert mat.dtype == np.min_scalar_type(-g.vertex_count)
            assert mat.flags.c_contiguous
            with pytest.raises(ValueError):
                mat[0, 1] = 7


class TestCenterShift:
    def test_identity_shift_zero(self):
        g = seeded_graph(4)
        assert center_shift(identity_mapping(g)).shift == 0

    def test_shift_zero_iff_sets_meet(self):
        rep = center_shift(identity_mapping(path_graph(6)))
        assert rep.shift == 0
        assert set(rep.source_center) & set(rep.target_center_preimage)

    @given(seeds)
    def test_matches_pure_recomputation(self, seed):
        # Independent route: centers and set distance via the plain BFS module.
        m = collapse_mapping(seed, max_n=20)
        rep = center_shift(m)
        src_center = center(m.source)
        tgt_center = set(center(m.target))
        pre = [v for v, y in enumerate(m.image) if y in tgt_center]
        assert rep.source_center == src_center
        assert tuple(pre) == rep.target_center_preimage
        assert rep.shift == set_distance(m.source, src_center, pre)

    def test_checks_no_vertex_again(self, monkeypatch):
        # Both centers are built here, so no vertex is checked again; the
        # checked public set_distance is the reference.
        mappings = quotient_and_mis_mappings()
        checks = CallCounter(monkeypatch, Graph, "check_vertex")
        reports = [center_shift(m) for m in mappings]
        assert checks.count == 0
        monkeypatch.undo()
        for m, rep in zip(mappings, reports):
            pre = m.preimage(center(m.target))
            assert rep.target_center_preimage == pre
            assert rep.shift == set_distance(m.source, center(m.source), pre)

    def test_bounds_use_given_constants(self):
        m = collapse_mapping(9)
        rep = center_shift(m, QuasiIsometryConstants(3, 1))
        rad = eccentricity_profile(m.target).radius
        assert rep.two_sided_bound == shift_bound_two_sided(3, 1, rad)
        assert rep.one_sided_bound == shift_bound_one_sided(3, 1, rad)
        # At radius >= 1 the bounds are over 1 apart, so a shift fits between.
        between = replace(rep, shift=int(rep.two_sided_bound))
        assert rad >= 1 and between.within() == {"two-sided": True, "one-sided": False}


def no_matrix(*args, **kwargs):
    raise RuntimeError("all-pairs matrix built for a tree quotient")


def accepted(candidates):
    """The mappings that ``(source, target, image)`` triples make.

    A triple whose map stretches an edge must be refused, naming the
    pair loop's first stretched edge, and is left out.
    """
    mappings = []
    for source, target, image in candidates:
        edge = first_stretched_edge(source, target, image)
        if edge is None:
            mappings.append(VertexMapping(source, target, image))
        else:
            with pytest.raises(InvalidMapping, match=rf"^edge \({edge[0]}, {edge[1]}\) "):
                VertexMapping(source, target, image)
    return mappings


def is_tree_quotient(m):
    """Whether ``m`` is a tree's quotient map, by building that quotient."""
    if not m.source.is_tree:
        return False
    blocks = [m.preimage([b]) for b in m.target.vertices()]
    try:
        p = Partition(m.source, blocks)
    except BlockNotConnected:
        return False
    return build_partition_graph(p).quotient == m.target


PARTITIONS = {
    "outward": lambda t, i: outward_contraction(t, i % t.vertex_count),
    "collapse": lambda t, i: collapse_basic(t),
    "collapse-modified": lambda t, i: collapse_modified(t),
    "singleton": lambda t, i: singleton_partition(t),
    "one-block": lambda t, i: Partition(t, [list(t.vertices())]),
}


def oracle_trees():
    """300 seeded trees with n = 1..30, plus paths and stars."""
    trees = [seeded_tree(seed, min_n=1, max_n=30) for seed in range(300)]
    trees += [path_graph(n) for n in (1, 2, 3, 8, 21)]
    trees += [star_graph(n) for n in (2, 3, 9, 25)]
    return trees


def assert_matches_oracles(m):
    """Every q1 quantity of ``m`` equals the pair-loop oracles'; returns the verdicts."""
    verdicts = set()
    for stretch in (1, 2, 3):
        assert minimal_additive_for_stretch(m, stretch) == minimal_additive(m, stretch)
        for additive in (0, 1, 2):
            res = verify_q1(m, stretch, additive)
            assert res.witness == q1_witness(m, stretch, additive)
            assert res.ok == (res.witness is None)
            verdicts.add(res.ok)
            if res.ok:
                assert verify_ecc_transfer(m, stretch, additive) == ecc_transfer_holds(
                    m, stretch, additive
                )
            else:
                with pytest.raises(PreconditionViolated):
                    verify_ecc_transfer(m, stretch, additive)
    return verdicts


@pytest.fixture
def cached_oracles(monkeypatch):
    """The oracles with one Floyd-Warshall run per graph."""
    monkeypatch.setattr(oracles, "floyd_warshall", functools.cache(floyd_warshall))


class TestTreeQuotient:
    """The path-weight DP that checks tree quotients without any matrix."""

    @pytest.mark.parametrize("kind", list(PARTITIONS))
    def test_matches_oracles(self, kind, cached_oracles, monkeypatch):
        # Every tree quotient's rows are heaviest paths: no block table runs.
        tables = CallCounter(monkeypatch, qiso.quasi, "_block_maxima")
        verdicts = set()
        for i, t in enumerate(oracle_trees()):
            pg = build_partition_graph(PARTITIONS[kind](t, i))
            verdicts |= assert_matches_oracles(pg.mapping)
            assert tables.count == 0
            # Both eccentricity profiles, as verify_ecc_transfer reads them.
            for tree in (t, pg.quotient):
                ecc = [max(row) for row in oracles.floyd_warshall(tree)]
                assert list(_eccentricities(tree)) == ecc
            assert verify_partition_qiso(pg)
        # Failing constants occur wherever some block has an inner edge.
        assert verdicts == ({True} if kind == "singleton" else {True, False})

    @pytest.mark.parametrize("kind", list(PARTITIONS))
    def test_row_maxima_branches_agree(self, kind, monkeypatch):
        # The path-weight DP against the block tables, row by row. The
        # clamped stretch n, and n + 1 beyond it, take the block sums from
        # int8 to int16 and, as (1 + n) * n > 32767 from n = 181, to int32.
        # Both kernels on the same mapping, and the tables of a fresh
        # mapping, compute every row afresh.
        def stretches(n):
            return [3, n, 1]

        def more_stretches(n):
            return [2, n + 1, 1]

        trees = oracle_trees() + [random_tree(257, 257), path_graph(181), path_graph(257)]
        mappings = [
            build_partition_graph(PARTITIONS[kind](t, i)).mapping
            for i, t in enumerate(trees)
        ]
        assert {m.source.vertex_count for m in mappings} >= {1, 2}
        tables = CallCounter(monkeypatch, qiso.quasi, "_block_maxima")
        by_dp = [
            (rows_of(m, stretches(n)), rows_of(m, more_stretches(n)))
            for m in mappings
            for n in [m.source.vertex_count]
        ]
        assert tables.count == 0
        for m, (rows, more_rows) in zip(mappings, by_dp):
            n = m.source.vertex_count
            assert rows_of(m, stretches(n), _block_maxima) == rows
            assert rows_of(m, more_stretches(n), _block_maxima) == more_rows
            fresh = VertexMapping(m.source, m.target, m.image)
            wanted = stretches(n) + more_stretches(n)
            assert rows_of(fresh, wanted, _block_maxima) == rows + more_rows

    def test_non_quotients_take_the_matrix_path(self, cached_oracles, monkeypatch):
        # Candidates that stretch an edge are refused at construction.
        candidates, mappings = [], []
        for seed in range(60):
            t = seeded_tree(seed, min_n=4, max_n=30)
            q = build_partition_graph(outward_contraction(t, 0)).quotient
            missing = [
                (a, b)
                for a in q.vertices()
                for b in q.vertices()
                if a < b and not q.adjacent(a, b)
            ]
            pg = build_partition_graph(collapse_basic(t))
            if missing:
                extra = Graph(q.vertex_count, q.edges() + [missing[seed % len(missing)]])
                candidates.append((t, extra, outward_contraction(t, 0).block_of))
            mappings.append(mis_derived(t, greedy_mis(t)).mapping)
            # A tree quotient's image set onto a relabelled tree of the same size.
            candidates.append((t, random_tree(len(pg.partition), seed), pg.mapping.image))
        mappings += accepted(candidates)
        non_quotients = [m for m in mappings if not is_tree_quotient(m)]
        assert len(non_quotients) > 100
        # Every row request of a non-quotient builds its block tables.
        rows = CallCounter(monkeypatch, qiso.quasi, "_row_maxima")
        tables = CallCounter(monkeypatch, qiso.quasi, "_block_maxima")
        for m in non_quotients:
            assert_matches_oracles(m)
        assert rows.count > 0
        assert [a[0] for a in tables.args] == [a[0] for a in rows.args]

    def test_block_reduction_matches_oracle(self, cached_oracles):
        # Every mapping takes the block tables, trees included, and each
        # row equals the per-pair loop's. Singleton partitions never run a
        # second slot; the whole graph onto one vertex runs n - 1 of them.
        def stretches(n):
            return [1, 2, 3, n]

        def independent_set_images(g, seed):
            rng = random.Random(seed)
            s = greedy_mis(g, rng.sample(range(g.vertex_count), g.vertex_count))
            image = [
                v if v in s else rng.choice([u for u in g.adjacency[v] if u in s])
                for v in g.vertices()
            ]
            return mis_derived(g, s, image).mapping

        graphs = [Graph(1), path_graph(2), path_graph(3), cycle_graph(3)]
        graphs += [seeded_graph(seed, min_n=4, max_n=40) for seed in range(30)]
        graphs += [seeded_tree(seed, min_n=4, max_n=40) for seed in range(10)]
        mappings = []
        for i, g in enumerate(graphs):
            partitions = [singleton_partition(g), Partition(g, [list(g.vertices())])]
            if g.vertex_count > 1:
                partitions += [collapse_basic(g), collapse_modified(g), random_partition(g, i)]
            mappings += [build_partition_graph(p).mapping for p in partitions]
            mappings.append(identity_mapping(g))
            mappings.append(mis_derived(g, greedy_mis(g)).mapping)
            mappings.append(independent_set_images(g, i))
        # Tied block sizes: four pairs, and two triples with two singletons.
        c8 = cycle_graph(8)
        for blocks in ([[0, 1], [2, 3], [4, 5], [6, 7]], [[0, 1, 2], [3], [4, 5, 6], [7]]):
            mappings.append(build_partition_graph(Partition(c8, blocks)).mapping)
        assert {m.source.vertex_count for m in mappings} >= {1, 2, 3}
        for m in mappings:
            wanted = stretches(m.source.vertex_count)
            expected = [oracles.row_maxima(m, s) for s in wanted]
            assert rows_of(m, wanted, _block_maxima) == expected, m

    @pytest.mark.parametrize("kind", ["collapse", "mis"])
    def test_claims_peak_below_one_int32_matrix(self, kind):
        # With both matrices cached, the claims hold k x n tables only:
        # no n x n image matrix (7.6 MiB in int16) and no n x n sum.
        g = random_connected_graph(2000, 6000, 7)
        if kind == "mis":
            m = mis_derived(g, greedy_mis(g)).mapping
        else:
            m = build_partition_graph(collapse_basic(g)).mapping
        distance_matrix(m.source), distance_matrix(m.target)
        tracemalloc.start()
        try:
            verify_q1(m, 3, 1)
            minimal_constants(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * np.dtype(np.int32).itemsize, (kind, peak)

    def test_pair_primitives_have_their_owners(self):
        # Pair reductions go through _row_maxima, so that choosing
        # between the tree DP and the block tables stays in one place;
        # only the derived graph's edges bypass it. Eccentricities are
        # each graph's own, kept in one slot that only _eccentricities
        # fills, on a tree from the same heaviest-path pass as the DP. A
        # mapping keeps nothing but its graphs and image: the block tables
        # are built where they are reduced, and no row is kept. Tree passes
        # from vertex 0 read the cached preorder, and weighted medians
        # reach the matrix only through graph._median. Every longest path
        # of a tree, in the eccentricities, the block diameters and the
        # tree-quotient DP, comes from the one top-two pass, with no
        # leaf-removal pass beside it. One bit-parallel level loop serves
        # the matrix, the block diameters and the derived graph, whose
        # members within 3 it finds with no matrix, so neither weighted.py
        # nor mis.py names the matrix; both all-pairs searches meet the one
        # size guard. The per-member search is left to the tests, as are
        # the raw density search and the checked set distance: a mapping's
        # density and center shift need neither. The distance matrix's type
        # is decided where it is built and never cast: the only casts are
        # the median's Python-int fallback and the byte order of the
        # search's bit words. Only the quotient and the derived graph,
        # valid by construction, skip Graph and VertexMapping validation,
        # only the six partition constructions skip Partition validation,
        # and a graph's slots are filled in one place. No block table keeps
        # nearest members: every claim bounds d - A*d' from above. The
        # constants are validated and clamped in one place, for the three
        # claims that take them.
        owners = {
            "astype": {"_median", "_source_bits"},
            "_down_paths": {"sharpness_report", "_heaviest_paths"},
            "_heaviest_paths": {"_eccentricities", "_row_maxima"},
            "_ecc": {"_fill", "_eccentricities"},
            "_leaf_removal": set(),
            "_image_distances": set(),
            "_block_maxima": {"_row_maxima"},
            "_preorder": {"_tree_preorder", "_rooted_extents", "_outward_blocks"},
            "_bfs_levels": {"_build_distances", "_induced_diameters", "_within"},
            "_within": {"mis_derived"},
            "_check_size": {"distance_matrix", "_within"},
            "induced_diameter": set(),
            "verify_q2_raw": set(),
            "set_distance": set(),
            "preimage": set(),
            "_trusted_graph": {"build_partition_graph", "mis_derived"},
            "_trusted_mapping": {"build_partition_graph", "mis_derived"},
            "_trusted_partition": {
                "singleton_partition",
                "collapse_basic",
                "collapse_modified",
                "outward_contraction",
                "composition_partition",
                "random_partition",
            },
            "minimum": set(),
            "_fill": {"__init__", "_trusted_graph"},
            "_clamped": {"verify_q1", "minimal_additive_for_stretch", "verify_ecc_transfer"},
        }
        users = {name: set() for name in owners}

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                name = getattr(child, "id", None) or getattr(child, "attr", None)
                if isinstance(child, (ast.Name, ast.Attribute)) and name in users:
                    users[name].add(owner)
                visit(child, owner)

        package = Path(qiso.__file__).parent
        for path in package.glob("*.py"):
            visit(ast.parse(path.read_text()), f"{path.name} (module level)")
        assert users == owners
        assert VertexMapping.__slots__ == ("source", "target", "image")
        modules = [ast.parse((package / name).read_text()) for name in ("weighted.py", "mis.py")]
        assert "distance_matrix" not in {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for tree in modules
            for node in ast.walk(tree)
        }

    def test_predicate_matches_quotient_construction(self, cached_oracles, monkeypatch):
        # _row_maxima takes the heaviest-path rows exactly on the tree
        # quotients, which equal the block tables' rows there, and builds
        # the block tables on every other mapping; both equal the oracle.
        paths = CallCounter(monkeypatch, qiso.quasi, "_heaviest_paths")
        tables = CallCounter(monkeypatch, qiso.quasi, "_block_maxima")

        def takes_paths(m):
            n = m.source.vertex_count
            before = paths.count, tables.count
            for stretch in (1, 2, 3, n):
                expected = list(oracles.row_maxima(m, stretch))
                assert _row_maxima(m, stretch) == expected
                assert _block_maxima(m, stretch) == expected
            # Each stretch's rows ran one kernel; the direct calls go uncounted.
            dp, blocks = paths.count - before[0], tables.count - before[1]
            assert (dp, blocks) in ((4, 0), (0, 4)), m
            return dp > 0

        rng = random.Random(5)
        seen = set()
        for seed in range(200):
            t = seeded_tree(seed, min_n=1, max_n=25)
            p = PARTITIONS[rng.choice(list(PARTITIONS))](t, seed)
            pg = build_partition_graph(p)
            k = pg.quotient.vertex_count
            # Relabelling the quotient keeps it a quotient.
            perm = list(range(k))
            rng.shuffle(perm)
            relabelled = Graph(k, [(perm[a], perm[b]) for a, b in pg.quotient.edges()])
            image = [perm[b] for b in pg.mapping.image]
            # Any surjective map onto any tree of that size, usually not a
            # quotient and usually refused for stretching an edge.
            arbitrary = image[:]
            rng.shuffle(arbitrary)
            candidates = [(t, relabelled, image), (t, random_tree(k, seed), arbitrary)]
            candidates.append((t, relabelled, arbitrary))
            for m in accepted(candidates):
                expected = is_tree_quotient(m)
                assert takes_paths(m) == expected
                seen.add(expected)
        for g in (cycle_graph(6), seeded_graph(3)):
            assert not takes_paths(identity_mapping(g))
        # A path wound around a triangle: one cross edge per target edge,
        # but block 0 is split, which only a tree target rules out.
        wound = VertexMapping(path_graph(4), cycle_graph(3), [0, 1, 2, 0])
        assert not takes_paths(wound) and not is_tree_quotient(wound)
        assert seen == {True, False}

    def test_no_matrix_and_no_size_guard(self, monkeypatch):
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        t = random_tree(3000, 8)
        for p in (outward_contraction(t, 17), collapse_basic(t), collapse_modified(t)):
            pg = build_partition_graph(p)
            m = pg.mapping
            c = sharpness_report(p).sharpness
            assert verify_q1(m, c + 1, 1)
            assert not verify_q1(m, 1, 0)
            assert verify_ecc_transfer(m, c + 1, 1)
            assert verify_partition_qiso(pg)
            assert minimal_additive_for_stretch(m, c + 1) <= 1
            constants = minimal_constants(m)
            report = center_shift(m)
            assert report.constants == constants
            assert report.shift <= report.one_sided_bound
