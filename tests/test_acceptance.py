"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every test prints a single pass/fail line (visible with ``pytest -s``)
and fails loudly with the first few violations otherwise. The larger
ensembles are built once per module and shared between criteria.
"""

import itertools
import random

import pytest

from helpers import seeded_weights
from oracles import longest_simple_cycle
from qiso.cli import main
from qiso.contraction import (
    composition_center_shift,
    composition_partition,
    outward_contraction,
    unbounded_shift_family,
)
from qiso.generators import (
    non_uniecc_chordal,
    random_connected_graph,
    random_partition,
    random_tree,
    star_graph,
)
from qiso.graph import (
    Graph,
    bfs_distances,
    center,
    eccentricity_profile,
    median,
    set_distance,
    uni_ecc_holds,
)
from qiso.mis import greedy_mis, mis_derived, verify_mis_bounds
from qiso.partition import (
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    sharpness_report,
    verify_partition_qiso,
)
from qiso.quasi import (
    center_shift,
    minimal_constants,
    verify_q1,
    verify_q2,
)
from qiso.weighted import (
    WeightedGraph,
    subset_weight,
    subtree_side,
    subtree_split_check,
    weighted_distance_sum,
    weighted_median,
    weighted_partition_tree,
)


def report(num, label, violations):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"[acceptance] criterion {num:02d} {status}: {label}")
    assert not violations, f"criterion {num}: first violations {violations[:3]}"


def random_graph(seed, max_n, max_extra_per_vertex=2):
    rng = random.Random(seed)
    n = rng.randrange(5, max_n + 1) if max_n >= 5 else rng.randrange(4, max_n + 1)
    max_m = n * (n - 1) // 2
    m = rng.randrange(n - 1, min(max_m, (1 + max_extra_per_vertex) * n) + 1)
    return random_connected_graph(n, m, seed)


@pytest.fixture(scope="module")
def suite6_trees():
    trees = []
    for i in range(500):
        seed = 6000 + i
        n = random.Random(seed).randrange(2, 121)
        trees.append(random_tree(n, seed))
    return trees


@pytest.fixture(scope="module")
def suite7_records():
    """Per (tree, root): center-shift and its bounds at minimal constants."""
    records = []
    for i in range(500):
        seed = 7000 + i
        rng = random.Random(seed)
        n = rng.randrange(2, 1001)
        t = random_tree(n, seed)
        for _ in range(5):
            root = rng.randrange(n)
            pg = build_partition_graph(outward_contraction(t, root))
            constants = minimal_constants(pg.mapping)
            rep = center_shift(pg.mapping, constants)
            records.append(
                (seed, root, rep.shift, rep.two_sided_bound, rep.one_sided_bound)
            )
    return records


def test_criterion_01_mis_guarantee():
    violations = []

    def check(g, tag, order=None):
        result = mis_derived(g, greedy_mis(g, order=order))
        if not verify_mis_bounds(result).ok:
            violations.append((tag, "bounds"))
        if not verify_q1(result.mapping, 3, 1).ok:
            violations.append((tag, "q1"))
        if not verify_q2(result.mapping, 0):
            violations.append((tag, "q2"))

    for i in range(100):
        check(random_graph(1000 + i, max_n=150), 1000 + i)
    check(star_graph(10), "star", order=list(range(1, 10)) + [0])
    for i in range(19):
        g = random_graph(1500 + i, max_n=60)
        order = list(g.vertices())
        random.Random(i).shuffle(order)
        check(g, ("adversarial", i), order=order)
    report(1, "independent-set sandwich and (3,1,0) guarantee", violations)


@pytest.fixture(scope="module")
def collapse_instances():
    instances = []
    for i in range(100):
        g = random_graph(2000 + i, max_n=100)
        for builder in (collapse_basic, collapse_modified):
            p = builder(g)
            instances.append((2000 + i, builder.__name__, g, p))
    return instances


def test_criterion_02_sharp_partition_guarantee(collapse_instances):
    violations = []
    for seed, name, g, p in collapse_instances:
        if not verify_partition_qiso(build_partition_graph(p)):
            violations.append((seed, name))
    report(2, "sharpness-driven distortion and one-sided contraction", violations)


def test_criterion_03_compression(collapse_instances):
    violations = []
    extra = [
        (3000 + i, "random", g := random_graph(3000 + i, max_n=100),
         random_partition(g, 3000 + i))
        for i in range(100)
    ]
    for seed, name, g, p in list(collapse_instances) + extra:
        b = sharpness_report(p).coarseness
        if len(p.blocks) * (b + 1) > g.vertex_count:
            violations.append((seed, name))
    report(3, "coarseness implies vertex compression", violations)


def test_criterion_04_tree_retention():
    violations = []
    for i in range(200):
        seed = 4000 + i
        n = random.Random(seed).randrange(2, 151)
        t = random_tree(n, seed)
        pg = build_partition_graph(random_partition(t, seed))
        if not pg.quotient.is_tree or not pg.retains_tree():
            violations.append(seed)
    report(4, "partitions of trees have tree quotients", violations)


def test_criterion_05_cycle_bound():
    violations = []
    for i in range(50):
        seed = 5000 + i
        rng = random.Random(seed)
        n = rng.randrange(4, 11)
        m = rng.randrange(n - 1, n * (n - 1) // 2 + 1)
        g = random_connected_graph(n, m, seed)
        pg = build_partition_graph(random_partition(g, seed))
        if longest_simple_cycle(pg.quotient) > longest_simple_cycle(g):
            violations.append(seed)
    report(5, "quotients never grow the longest simple cycle", violations)


def test_criterion_06_tree_uni_ecc(suite6_trees):
    violations = []
    for i, t in enumerate(suite6_trees):
        if not uni_ecc_holds(t).ok:
            violations.append((6000 + i, "flag"))
            continue
        prof = eccentricity_profile(t)
        ctr = center(t)
        for v in t.vertices():
            if set_distance(t, ctr, [v]) != prof.eccentricity[v] - prof.radius:
                violations.append((6000 + i, v))
                break
    chordal = non_uniecc_chordal()
    check = uni_ecc_holds(chordal)
    prof = eccentricity_profile(chordal)
    dist = bfs_distances(chordal, center(chordal)[0])
    if check.ok:
        violations.append(("chordal", "unexpectedly uniform"))
    if prof.radius != 2 or len(center(chordal)) != 1:
        violations.append(("chordal", "center data"))
    if not any(
        prof.eccentricity[v] == 3 and dist[v] == 2 for v in chordal.vertices()
    ):
        violations.append(("chordal", "violator data"))
    report(6, "trees are uniformly eccentric, frozen chordal graph is not", violations)


def test_criterion_07_center_preservation(suite7_records):
    violations = [
        (seed, root) for seed, root, shift, _, _ in suite7_records if shift != 0
    ]
    assert len(suite7_records) == 2500
    report(7, "outward contraction never moves the center", violations)


def test_criterion_08_composition_formula():
    violations = []

    def direct(parts):
        g, p = composition_partition(parts)
        pg = build_partition_graph(p)
        quotient_center = set(center(pg.quotient))
        pre = [v for v in g.vertices() if p.block_of[v] in quotient_center]
        return set_distance(g, center(g), pre)

    worked = [3, 3, 2, 2, 3, 1]
    sigma = worked[2] + worked[3]
    lam, rho = worked[0] + worked[1], worked[4] + worked[5]
    if (sigma, lam, rho) != (4, 6, 4) or composition_center_shift(worked) != 0:
        violations.append(("worked", worked))

    for total in range(1, 16):
        for cuts in itertools.product((0, 1), repeat=total - 1):
            parts = []
            run = 1
            for cut in cuts:
                if cut:
                    parts.append(run)
                    run = 1
                else:
                    run += 1
            parts.append(run)
            if composition_center_shift(parts) != direct(parts):
                violations.append(("exhaustive", parts))

    for i in range(1000):
        rng = random.Random(8000 + i)
        total = rng.randrange(1, 501)
        parts = []
        while total:
            size = rng.randrange(1, min(9, total) + 1)
            parts.append(size)
            total -= size
        g, p = composition_partition(parts)
        rep = center_shift(build_partition_graph(p).mapping)
        if composition_center_shift(parts) != rep.shift:
            violations.append(("random", i))
    report(8, "closed-form path center displacement matches measurement", violations)


def test_criterion_09_unbounded_shift_family():
    violations = []
    for t in range(1, 26):
        g, p = unbounded_shift_family(t)
        rep = sharpness_report(p)
        measured = center_shift(build_partition_graph(p).mapping).shift
        if measured != t or rep.sharpness != 2:
            violations.append((t, measured, rep.sharpness))
    report(9, "the 2-sharp family realizes every center displacement", violations)


def test_criterion_10_center_shift_bounds(suite6_trees, suite7_records):
    violations = []
    for i, t in enumerate(suite6_trees):
        pg = build_partition_graph(outward_contraction(t, 0))
        rep = center_shift(pg.mapping)
        if rep.shift > rep.two_sided_bound or rep.shift > rep.one_sided_bound:
            violations.append((6000 + i, rep.shift))
        assert rep.within() == {
            "two-sided": rep.shift <= rep.two_sided_bound,
            "one-sided": rep.shift <= rep.one_sided_bound,
        }
        assert rep.one_sided_bound <= rep.two_sided_bound
    for seed, root, shift, two_sided, one_sided in suite7_records:
        if shift > two_sided or shift > one_sided:
            violations.append((seed, root, shift))
        assert one_sided <= two_sided
    report(10, "measured shifts respect both closed-form bounds", violations)


def test_criterion_11_weighted_median_machinery():
    violations = []
    for i in range(200):
        seed = 11000 + i
        n = random.Random(seed).randrange(2, 81)
        t = random_tree(n, seed)
        wg = WeightedGraph(t, seeded_weights(seed, n))
        sums = [weighted_distance_sum(wg, v) for v in t.vertices()]
        med = weighted_median(wg)
        if len(med) not in (1, 2) or (len(med) == 2 and not t.adjacent(*med)):
            violations.append((seed, "median size"))
        for x, y in t.edges():
            if not subtree_split_check(wg, x, y):
                violations.append((seed, "split", x, y))
                break
            side_y = subtree_side(t, y, x)
            if (sums[x] < sums[y]) != (
                subset_weight(wg, side_y) < subset_weight(wg, subtree_side(t, x, y))
            ):
                violations.append((seed, "sign", x, y))
                break
            if sums[x] < sums[y] and any(sums[v] <= sums[x] for v in side_y):
                violations.append((seed, "downhill", x, y))
                break
            if sums[x] == sums[y] and med != (min(x, y), max(x, y)):
                violations.append((seed, "tie", x, y))
                break
    report(11, "split identity, dominance, tie and size laws on weighted trees", violations)


def test_criterion_12_median_preservation():
    violations = []
    for i in range(500):
        seed = 12000 + i
        rng = random.Random(seed)
        n = rng.randrange(2, 101)
        t = random_tree(n, seed)
        partitions = (
            outward_contraction(t, rng.randrange(n)),
            random_partition(t, seed),
        )
        true_median = set(median(t))
        for p in partitions:
            wq, _ = weighted_partition_tree(p)
            for b in weighted_median(wq):
                if not true_median.intersection(p.blocks[b]):
                    violations.append((seed, b))

    # Weights are necessary: a hub of six leaves with a four-edge tail,
    # contracted from the tail tip, has an unweighted quotient median
    # whose block misses the true median entirely.
    hub_tree = Graph(
        11, [(0, leaf) for leaf in range(1, 7)] + [(0, 7), (7, 8), (8, 9), (9, 10)]
    )
    p = outward_contraction(hub_tree, 10)
    wq, _ = weighted_partition_tree(p)
    true_median = set(median(hub_tree))
    unweighted_blocks = median(wq.graph)
    if any(true_median & set(p.blocks[b]) for b in unweighted_blocks):
        violations.append(("regression", "unweighted quotient median not misleading"))
    if not all(true_median & set(p.blocks[b]) for b in weighted_median(wq)):
        violations.append(("regression", "weighted quotient median missed"))
    report(12, "weighted quotient medians always cover the true median", violations)


def test_criterion_13_solver_sanity():
    from qiso.quasi import VertexMapping, identity_mapping

    violations = []
    for seed in (13001, 13002, 13003):
        g = random_graph(seed, max_n=40)
        ident = minimal_constants(identity_mapping(g))
        if (ident.stretch, ident.additive, ident.density) != (1, 0, 0):
            violations.append((seed, "identity", ident))
        singleton = minimal_constants(VertexMapping(g, Graph(1), [0] * g.vertex_count))
        diam = eccentricity_profile(g).diameter
        if (singleton.stretch, singleton.additive, singleton.density) != (1, diam, 0):
            violations.append((seed, "singleton", singleton))
    report(13, "minimal constants on the identity and the point collapse", violations)


def test_criterion_14_cli_determinism(tmp_path, monkeypatch):
    violations = []

    def run_flow(base):
        # Identical argument lists in a fresh directory per run.
        base.mkdir()
        monkeypatch.chdir(base)
        assert main(["generate", "random-tree", "--n", "60", "--seed", "21", "-o", "tree.el"]) == 0
        assert main(["simplify", "tree.el", "--method", "outward", "-o", "simp"]) == 0
        assert (
            main(
                [
                    "analyze",
                    "tree.el",
                    "--partition",
                    "simp.partition.txt",
                    "-o",
                    "analysis.json",
                ]
            )
            == 0
        )
        names = (
            "tree.el",
            "simp.quotient.el",
            "simp.partition.txt",
            "simp.report.json",
            "analysis.json",
        )
        return {name: (base / name).read_bytes() for name in names}

    first = run_flow(tmp_path / "run1")
    second = run_flow(tmp_path / "run2")
    monkeypatch.chdir(tmp_path)
    for name in first:
        if first[name] != second[name]:
            violations.append(("bytes", name))

    tree = tmp_path / "run1" / "tree.el"
    code = main(
        [
            "verify",
            str(tree),
            "--partition",
            str(tmp_path / "run1" / "simp.partition.txt"),
            "--claims",
            "q1,q2,ecc-transfer,tree-retention,compression,shift-bounds,median-preservation",
            "-o",
            str(tmp_path / "verify_tree.json"),
        ]
    )
    if code != 0:
        violations.append(("verify", "partition claims", code))
    star = tmp_path / "star.el"
    main(["generate", "star", "--n", "9", "-o", str(star)])
    main(["simplify", str(star), "--method", "mis", "-o", str(tmp_path / "mis")])
    code = main(
        [
            "verify",
            str(star),
            "--mapping",
            str(tmp_path / "mis.mapping.txt"),
            "--claims",
            "mis-bounds,q1,q2",
            "-o",
            str(tmp_path / "verify_star.json"),
        ]
    )
    if code != 0:
        violations.append(("verify", "mis claims", code))
    report(14, "seeded command flows are byte-stable and claims verify", violations)
