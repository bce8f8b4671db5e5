#!/usr/bin/env python
"""Survey the simplification constructions over seeded random ensembles.

For each method this prints how much the graphs shrink, how sharp and
coarse the produced partitions are, and how far the center moves. Useful
for eyeballing the compression/distortion trade-off the constructions
make; the guarantees themselves live in the test suite.
"""

from __future__ import annotations

import argparse
import random
from fractions import Fraction

from qiso.contraction import outward_contraction
from qiso.generators import random_connected_graph, random_tree
from qiso.mis import greedy_mis, mis_derived
from qiso.partition import (
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    sharpness_report,
)
from qiso.quasi import center_shift, minimal_constants


def graph_ensemble(count: int, max_n: int, seed: int):
    for i in range(count):
        rng = random.Random(seed + i)
        n = rng.randrange(5, max_n + 1)
        m = rng.randrange(n - 1, min(n * (n - 1) // 2, 3 * n) + 1)
        yield random_connected_graph(n, m, seed + i)


def tree_ensemble(count: int, max_n: int, seed: int):
    for i in range(count):
        n = random.Random(seed + i).randrange(2, max_n + 1)
        yield random_tree(n, seed + i)


def survey(name, instances, simplify):
    ratios = []
    sharps = []
    coarses = []
    shifts = []
    additives = []
    for g in instances:
        mapping, rep = simplify(g)
        ratios.append(Fraction(mapping.target.vertex_count, g.vertex_count))
        if rep is not None:
            sharps.append(rep.sharpness)
            coarses.append(rep.coarseness)
        constants = minimal_constants(mapping)
        additives.append(constants.additive)
        shifts.append(center_shift(mapping, constants).shift)
    count = len(ratios)
    mean_ratio = sum(ratios, Fraction(0)) / count
    print(f"{name:18s} instances {count:4d}  mean |H|/|G| {float(mean_ratio):.3f}  "
          f"sharpness max {max(sharps) if sharps else '-'}  "
          f"coarseness min {min(coarses) if coarses else '-'}  "
          f"additive max {max(additives)}  "
          f"shift max {max(shifts)}  shift>0 {sum(s > 0 for s in shifts)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument("--max-n", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    def mis_simplify(g):
        result = mis_derived(g, greedy_mis(g))
        return result.mapping, None

    def partition_simplify(builder):
        def run(g):
            p = builder(g)
            return build_partition_graph(p).mapping, sharpness_report(p)

        return run

    def outward_simplify(g):
        p = outward_contraction(g, 0)
        return build_partition_graph(p).mapping, sharpness_report(p)

    graphs = list(graph_ensemble(args.count, args.max_n, args.seed))
    trees = list(tree_ensemble(args.count, args.max_n, args.seed + 10_000))
    survey("mis", graphs, mis_simplify)
    survey("collapse", graphs, partition_simplify(collapse_basic))
    survey("collapse-modified", graphs, partition_simplify(collapse_modified))
    survey("outward (trees)", trees, outward_simplify)


if __name__ == "__main__":
    main()
