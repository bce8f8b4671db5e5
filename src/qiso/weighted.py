"""Vertex-weighted graphs, weighted medians, and median recovery on trees.

Weights are exact (ints or Fractions; anything else is refused), so
weighted distance-sums and their comparisons never carry rounding error.
Turning a partition-tree into a weighted graph by recording block
cardinalities lets the original median be located from the quotient
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import InvalidWeight, NotAdjacent
from .graph import Graph, _median, bfs_distances, require_tree
from .partition import Partition, PartitionGraph, build_partition_graph
from .quasi import VertexMapping

Weight = Union[int, Fraction]


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with a strictly positive weight per vertex."""

    graph: Graph
    weights: tuple[Weight, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.graph.vertex_count:
            raise InvalidWeight(
                f"{len(self.weights)} weights for {self.graph.vertex_count} vertices"
            )
        for v, w in enumerate(self.weights):
            if not isinstance(w, (int, Fraction)):
                raise InvalidWeight(
                    f"weight of vertex {v} is {w!r}, must be an int or a Fraction"
                )
            if w <= 0:
                raise InvalidWeight(f"weight of vertex {v} is {w}, must be positive")


def subset_weight(wg: WeightedGraph, s: Iterable[int]) -> Weight:
    """Total weight of a vertex subset; a repeated vertex counts once."""
    subset = dict.fromkeys(s)
    for v in subset:
        wg.graph.check_vertex(v)
    return sum(wg.weights[v] for v in subset)


def weighted_distance_sum(wg: WeightedGraph, x: int) -> Weight:
    """Sum over all vertices of hop distance from ``x`` times their weight."""
    dist = bfs_distances(wg.graph, x)
    return sum(d * w for d, w in zip(dist, wg.weights))


def weighted_median(wg: WeightedGraph) -> tuple[int, ...]:
    """Vertices minimizing the weighted distance-sum, ascending.

    Scaling every weight by the least common multiple of their
    denominators makes them ints and scales every sum alike, so the
    argmin stays exact (see :func:`qiso.graph._median`).
    """
    scale = lcm(*(w.denominator for w in wg.weights))
    return _median(wg.graph, [w.numerator * (scale // w.denominator) for w in wg.weights])


def weighted_partition_tree(p: Partition) -> tuple[WeightedGraph, VertexMapping]:
    """Quotient of a partitioned tree with block cardinalities as vertex weights.

    The weights sum to the original vertex count, which is exactly the
    bookkeeping needed to recover the original median from the quotient.
    """
    require_tree(p.graph)
    pg = build_partition_graph(p)
    return WeightedGraph(pg.quotient, tuple(len(blk) for blk in p.blocks)), pg.mapping


def _median_blocks(pg: PartitionGraph) -> list[tuple[int, ...]]:
    """Blocks forming the quotient's median, weighed by block sizes."""
    blocks = pg.partition.blocks
    return [blocks[b] for b in _median(pg.quotient, [len(blk) for blk in blocks])]


def median_preserved(pg: PartitionGraph, source_median: Sequence[int]) -> bool:
    """Whether each block of the weighted quotient's median meets
    ``source_median``, the partitioned tree's median (true off trees)."""
    if not pg.mapping.source.is_tree:
        return True
    kept = set(source_median)
    return all(kept.intersection(blk) for blk in _median_blocks(pg))


def locate_median_via_partition(p: Partition) -> tuple[int, ...]:
    """Candidate region for the median of the partitioned tree, found on the quotient.

    Returns the union of the blocks forming the cardinality-weighted
    quotient's median; each of them holds a true median vertex of the tree.
    """
    require_tree(p.graph)
    blocks = _median_blocks(build_partition_graph(p))
    return tuple(sorted(v for blk in blocks for v in blk))


def subtree_side(g: Graph, x: int, y: int) -> tuple[int, ...]:
    """Vertices whose path to ``y`` passes through ``x`` (including ``x``).

    These are exactly the vertices closer to ``x`` than to ``y``.
    """
    require_tree(g)
    if not g.adjacent(x, y):
        raise NotAdjacent(f"{x} and {y} are not adjacent")
    dx = bfs_distances(g, x)
    dy = bfs_distances(g, y)
    return tuple(v for v in g.vertices() if dx[v] < dy[v])


def subtree_split_check(wg: WeightedGraph, x: int, y: int) -> bool:
    """Verify the split identity across one tree edge, exactly.

    For adjacent ``x, y`` with side subtrees ``S_x`` and ``S_y``, checks
    that distance-sum(x) + weight(S_x) equals distance-sum(y) + weight(S_y).
    """
    side_x = subtree_side(wg.graph, x, y)
    side_y = subtree_side(wg.graph, y, x)
    return (
        weighted_distance_sum(wg, x) + subset_weight(wg, side_x)
        == weighted_distance_sum(wg, y) + subset_weight(wg, side_y)
    )
