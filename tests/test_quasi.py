import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import seeded_graph, seeded_tree
from oracles import ecc_transfer_holds, floyd_warshall, minimal_additive, q1_witness
from qiso.contraction import outward_contraction
from qiso.errors import (
    BlockNotConnected,
    InvalidConstants,
    NotSurjective,
    PreconditionViolated,
    TooLarge,
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
    Graph,
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
    _path_maxima,
    _tree_quotient,
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
    return build_partition_graph(g, collapse_basic(g)).mapping


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
            graphs.append(build_partition_graph(g, partition).quotient)
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

    def test_preimage(self):
        m = VertexMapping(path_graph(4), path_graph(2), [0, 0, 1, 1])
        assert m.preimage([1]) == (2, 3)


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
        m = build_partition_graph(g, collapse_basic(g)).mapping
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
        with pytest.raises(InvalidConstants):
            verify_q2_raw(path_graph(2), [0, 1], -1)


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
    def test_huge_constants_stay_exact(self, big):
        # int64 arithmetic at these constants would wrap or overflow.
        g = path_graph(10)
        m = build_partition_graph(g, collapse_basic(g)).mapping
        assert minimal_additive_for_stretch(m, big) == minimal_additive(m, big) == 1
        for a, b in [(big, 0), (1, big), (big, big), (2, big)]:
            assert verify_q1(m, a, b).witness == q1_witness(m, a, b)
        assert verify_ecc_transfer(m, big, 1) == ecc_transfer_holds(m, big, 1)
        assert verify_ecc_transfer(m, 1, big) == ecc_transfer_holds(m, 1, big)


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
            pg = build_partition_graph(t, outward_contraction(t, 0))
            assert verify_ecc_transfer(pg.mapping, 3, 1)

    def test_collapse_at_minimal_constants(self):
        for seed in range(10):
            m = collapse_mapping(seed, max_n=20)
            cst = minimal_constants(m)
            assert verify_ecc_transfer(m, cst.stretch, cst.additive)


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
        for t in trees:
            assert distance_matrix(t).tolist() == floyd_warshall(t)

    @pytest.mark.parametrize("chunk", [1, 63, 64, 65, "n-1"])
    def test_bfs_kernel_matches_floyd_warshall(self, cyclic_cases, monkeypatch, chunk):
        for g, oracle in cyclic_cases:
            n = g.vertex_count
            monkeypatch.setattr("qiso.graph._CHUNK", n - 1 if chunk == "n-1" else chunk)
            mat = distance_matrix(Graph(n, g.edges()))  # a fresh, uncached copy
            assert mat.dtype == "int64" and mat.flags.c_contiguous
            assert not mat.flags.writeable
            assert mat.tolist() == oracle, (g, chunk)

    def test_bfs_kernel_long_distances(self):
        # Distances above 255 take more than eight bit planes to assemble.
        for g in (cycle_graph(1100), grid_graph(2, 300)):
            mat = distance_matrix(g)
            assert [mat[v].tolist() for v in g.vertices()] == [
                bfs_distances(g, v) for v in g.vertices()
            ]

    def test_cached_and_read_only(self):
        for g in (seeded_graph(5), seeded_tree(5, min_n=2)):
            mat = distance_matrix(g)
            assert distance_matrix(g) is mat
            assert mat.dtype == "int64" and mat.flags.c_contiguous
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

    def test_bounds_use_given_constants(self):
        m = collapse_mapping(9)
        rep = center_shift(m, QuasiIsometryConstants(3, 1))
        rad = eccentricity_profile(m.target).radius
        assert rep.two_sided_bound == shift_bound_two_sided(3, 1, rad)
        assert rep.one_sided_bound == shift_bound_one_sided(3, 1, rad)


def no_matrix(*args, **kwargs):
    raise RuntimeError("all-pairs matrix built for a tree quotient")


def no_dp(*args, **kwargs):
    raise RuntimeError("path-weight DP run on a mapping that is no tree quotient")


def is_tree_quotient(m):
    """Whether ``m`` is a tree's quotient map, by building that quotient."""
    if not m.source.is_tree:
        return False
    blocks = [m.preimage([b]) for b in m.target.vertices()]
    try:
        p = Partition(m.source, blocks)
    except BlockNotConnected:
        return False
    return build_partition_graph(m.source, p).quotient == m.target


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
    def test_matches_oracles(self, kind, cached_oracles):
        verdicts = set()
        for i, t in enumerate(oracle_trees()):
            pg = build_partition_graph(t, PARTITIONS[kind](t, i))
            assert _tree_quotient(pg.mapping)
            verdicts |= assert_matches_oracles(pg.mapping)
            # Both eccentricity profiles, as verify_ecc_transfer reads them.
            ecc1, ecc2 = _path_maxima(pg.mapping, (1, 0), (0, 1))
            assert ecc1 == [max(row) for row in oracles.floyd_warshall(t)]
            ecc_q = [max(row) for row in oracles.floyd_warshall(pg.quotient)]
            assert ecc2 == [ecc_q[b] for b in pg.mapping.image]
            assert verify_partition_qiso(pg)
        # Failing constants occur wherever some block has an inner edge.
        assert verdicts == ({True} if kind == "singleton" else {True, False})

    def test_non_quotients_take_the_matrix_path(self, cached_oracles, monkeypatch):
        mappings = []
        for seed in range(60):
            t = seeded_tree(seed, min_n=4, max_n=30)
            q = build_partition_graph(t, outward_contraction(t, 0)).quotient
            missing = [
                (a, b)
                for a in q.vertices()
                for b in q.vertices()
                if a < b and not q.adjacent(a, b)
            ]
            pg = build_partition_graph(t, collapse_basic(t))
            if missing:
                extra = Graph(q.vertex_count, q.edges() + [missing[seed % len(missing)]])
                image = outward_contraction(t, 0).block_of
                mappings.append(VertexMapping(t, extra, image))
            mappings.append(mis_derived(t, greedy_mis(t)).mapping)
            # A tree quotient's image set onto a relabelled tree of the same size.
            mappings.append(VertexMapping(t, random_tree(len(pg.partition), seed), pg.mapping.image))
        monkeypatch.setattr("qiso.quasi._path_maxima", no_dp)
        non_quotients = [m for m in mappings if not is_tree_quotient(m)]
        assert len(non_quotients) > 100
        for m in non_quotients:
            assert not _tree_quotient(m)
            assert_matches_oracles(m)

    def test_predicate_matches_quotient_construction(self):
        rng = random.Random(5)
        seen = set()
        for seed in range(200):
            t = seeded_tree(seed, min_n=1, max_n=25)
            p = PARTITIONS[rng.choice(list(PARTITIONS))](t, seed)
            pg = build_partition_graph(t, p)
            k = pg.quotient.vertex_count
            # Relabelling the quotient keeps it a quotient.
            perm = list(range(k))
            rng.shuffle(perm)
            relabelled = Graph(k, [(perm[a], perm[b]) for a, b in pg.quotient.edges()])
            image = [perm[b] for b in pg.mapping.image]
            # Any surjective map onto any tree of that size, usually not a quotient.
            arbitrary = image[:]
            rng.shuffle(arbitrary)
            for m in (
                VertexMapping(t, relabelled, image),
                VertexMapping(t, random_tree(k, seed), arbitrary),
                VertexMapping(t, relabelled, arbitrary),
            ):
                expected = is_tree_quotient(m)
                assert _tree_quotient(m) == expected
                seen.add(expected)
        for g in (cycle_graph(6), seeded_graph(3)):
            assert not _tree_quotient(identity_mapping(g))
        assert seen == {True, False}

    def test_no_matrix_and_no_size_guard(self, monkeypatch):
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        t = random_tree(3000, 8)
        for p in (outward_contraction(t, 17), collapse_basic(t), collapse_modified(t)):
            pg = build_partition_graph(t, p)
            m = pg.mapping
            c = sharpness_report(t, p).sharpness
            assert verify_q1(m, c + 1, 1)
            assert not verify_q1(m, 1, 0)
            assert verify_ecc_transfer(m, c + 1, 1)
            assert verify_partition_qiso(pg)
            assert minimal_additive_for_stretch(m, c + 1) <= 1
            constants = minimal_constants(m)
            report = center_shift(m)
            assert report.constants == constants
            assert report.shift <= report.one_sided_bound
