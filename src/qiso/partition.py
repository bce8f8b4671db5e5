"""Partitions into connected blocks and the quotient graph they induce.

Blocks ("super-vertices") must induce connected subgraphs. :class:`Partition`
checks partitions from outside: on a tree by one count of the edges inside
blocks, else by one search over them. The constructions prove theirs
connected and build them unchecked (:func:`_trusted_partition`). The
quotient joins two blocks whenever some cross edge exists; it is simple
and connected by construction, so it is built in one pass over the
adjacency and not validated again. Sharpness bounds block diameters from
above and drives the distortion of the quotient mapping, coarseness
bounds them from below and drives compression. Every block diameter
comes from one pass: longest paths within blocks on a tree, else one
bit-parallel breadth-first sweep over the intra-block edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, eq
from typing import Iterable, Optional, Sequence

from .errors import BlockNotConnected, InvalidVertex, NotAPartition
from .graph import (
    Graph,
    _bfs,
    _down_paths,
    _induced_diameters,
    _tree_preorder,
    _trusted_graph,
)
from .quasi import VertexMapping, _trusted_mapping, verify_q1


class Partition:
    """A cover of the vertex set by disjoint connected blocks.

    Blocks keep their given order; members are stored ascending.
    ``block_of[v]`` is the index of the block containing ``v``. Checked
    here only when from outside: a partition file or a library caller.
    On a tree the k blocks are all connected exactly when n - k tree
    edges lie inside blocks, counted against the cached preorder's
    parents; a count that falls short, and any graph with cycles, runs
    one search over the intra-block edges, which names the first
    disconnected block.
    """

    __slots__ = ("graph", "blocks", "block_of")

    def __init__(self, graph: Graph, blocks: Iterable[Sequence[int]]):
        n = graph.vertex_count
        block_of = [-1] * n
        cleaned: list[tuple[int, ...]] = []
        for i, blk in enumerate(blocks):
            members = sorted(blk)
            if not members:
                raise NotAPartition(f"block {i} is empty")
            for v in members:
                if not (0 <= v < n):
                    raise InvalidVertex(f"block {i} contains vertex {v}")
                if block_of[v] >= 0:
                    raise NotAPartition(
                        f"vertex {v} appears in blocks {block_of[v]} and {i}"
                    )
                block_of[v] = i
            cleaned.append(tuple(members))
        missing = block_of.count(-1)
        if missing:
            raise NotAPartition(f"{missing} vertices not covered by any block")
        # On a tree the e edges inside blocks form a forest of n - e trees,
        # and each block holds at least one of them, so the k blocks are
        # all connected exactly when e = n - k. Each tree edge joins a
        # vertex other than the root, vertex 0, to its parent.
        connected = False
        if graph.is_tree:
            parent = _tree_preorder(graph)[1]
            inside = sum(map(eq, block_of[1:], map(block_of.__getitem__, parent[1:])))
            connected = inside == n - len(cleaned)
        if not connected:
            # One search over the intra-block edges, from every block's
            # first member: those edges never leave a block, so a vertex
            # stays unreached exactly when its block is disconnected.
            inner = [
                [u for u in nbrs if block_of[u] == b]
                for nbrs, b in zip(graph.adjacency, block_of)
            ]
            reached = _bfs(inner, [members[0] for members in cleaned])
            if -1 in reached:
                first = min(block_of[v] for v, d in enumerate(reached) if d < 0)
                raise BlockNotConnected(f"block {first} does not induce a connected subgraph")
        self.graph = graph
        self.blocks: tuple[tuple[int, ...], ...] = tuple(cleaned)
        self.block_of: tuple[int, ...] = tuple(block_of)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return f"Partition({len(self.blocks)} blocks over {self.graph!r})"


def _trusted_partition(g: Graph, block_of: Sequence[int], count: int) -> Partition:
    """A :class:`Partition` from each vertex's block index, unchecked.

    ``block_of`` must hold one Python int in ``0..count-1`` per vertex,
    every index used, and each block must induce a connected subgraph.
    Blocks come in index order, members ascending. The caller owns that
    proof; nothing here checks it.
    """
    blocks: list[list[int]] = [[] for _ in range(count)]
    for v, b in enumerate(block_of):
        blocks[b].append(v)
    p = Partition.__new__(Partition)
    p.graph, p.blocks, p.block_of = g, tuple(map(tuple, blocks)), tuple(block_of)
    return p


def singleton_partition(g: Graph) -> Partition:
    """One block per vertex, so connected; the quotient is the graph itself."""
    return _trusted_partition(g, range(g.vertex_count), g.vertex_count)


@dataclass(frozen=True)
class PartitionGraph:
    """A partition together with its quotient graph and natural mapping."""

    quotient: Graph
    mapping: VertexMapping
    partition: Partition

    def retains_tree(self) -> bool:
        """Whether a tree's quotient is a tree (vacuously true off trees)."""
        return self.quotient.is_tree or not self.mapping.source.is_tree


def build_partition_graph(p: Partition) -> PartitionGraph:
    """Quotient of ``p.graph`` by ``p``: one vertex per block, edges from cross edges.

    One pass over the adjacency collects each block's neighbour blocks
    in a set, so no block pair repeats; removing the block itself leaves
    no self-loop, and each cross edge is seen from both ends, so both
    blocks list each other. The quotient is connected: the blocks cover
    the vertices, and a path of the graph between members of two blocks
    maps to a walk between them. So it is built unchecked
    (:func:`qiso.graph._trusted_graph`).

    So is the mapping (:func:`qiso.quasi._trusted_mapping`), the tuple
    ``p.block_of``: each entry is a block index, so in range; every block
    is non-empty, so it is onto; and the ends of each edge lie in one
    block, or in two blocks that the pass above joined, so no edge is
    stretched.
    """
    g, block_of = p.graph, p.block_of
    near: list[set[int]] = [set() for _ in p.blocks]
    for b, nbrs in zip(block_of, g.adjacency):
        blocks = near[b]
        for u in nbrs:
            blocks.add(block_of[u])
    for b, blocks in enumerate(near):
        blocks.discard(b)
    quotient = _trusted_graph(tuple(tuple(sorted(blocks)) for blocks in near))
    return PartitionGraph(
        quotient=quotient,
        mapping=_trusted_mapping(g, quotient, block_of),
        partition=p,
    )


@dataclass(frozen=True)
class SharpnessReport:
    """Extreme block diameters and the vertex compression they imply."""

    sharpness: int
    coarseness: int
    compression_ratio: Fraction

    @property
    def guarantee(self) -> tuple[int, int]:
        """The quotient mapping's guaranteed (stretch, additive) at density 0.

        A theorem, with s the sharpness: walk a shortest quotient path
        from f(x) to f(y) block by block, d' cross edges and d' + 1
        connected blocks of induced diameter at most s, so
        ``d <= (s+1)*d' + s``: the lower side at (s + 1, 1), with room to
        spare. The eccentricity transfer follows (take y farthest from x).
        """
        return self.sharpness + 1, 1

    def compresses(self) -> bool:
        """Whether |quotient| * (c + 1) <= |graph|, with c the coarseness."""
        return self.compression_ratio * (self.coarseness + 1) <= 1


def sharpness_report(p: Partition) -> SharpnessReport:
    """Max and min induced block diameter of ``p``, and |quotient| / |graph|.

    A tree's blocks are subtrees, so one longest-path pass measures them
    all (:func:`qiso.graph._down_paths`), with edges between blocks
    weighing -n so that no path crosses one. Any other graph's blocks are
    measured together by one bit-parallel search from every vertex over
    the intra-block edges (:func:`qiso.graph._induced_diameters`).
    """
    g = p.graph
    if g.is_tree:
        n, block_of = g.vertex_count, p.block_of
        parent = _tree_preorder(g)[1]
        w = [1 if b == block_of[u] else -n for b, u in zip(block_of, parent)]
        top1, top2 = _down_paths(g, w)
        diameters = [0] * len(p.blocks)
        for b, turn in zip(block_of, map(add, top1, top2)):
            if turn > diameters[b]:
                diameters[b] = turn
    else:
        diameters = _induced_diameters(g, p.block_of, len(p.blocks))
    return SharpnessReport(
        sharpness=max(diameters),
        coarseness=min(diameters),
        compression_ratio=Fraction(len(p.blocks), g.vertex_count),
    )


def _sweep_order(g: Graph, order: Optional[Sequence[int]]) -> Sequence[int]:
    if order is None:
        return range(g.vertex_count)
    sweep = list(order)
    if sorted(sweep) != list(range(g.vertex_count)):
        raise InvalidVertex("order must be a permutation of all vertices")
    return sweep


def _greedy_sweep(g: Graph, order: Optional[Sequence[int]]) -> tuple[list[int], list[int]]:
    """One greedy sweep: the picks, in sweep order, and each vertex's owner's index.

    A vertex is picked, and owned by its own index, when no earlier pick
    is adjacent to it; any other vertex takes the index of the first pick
    adjacent to it.
    """
    owner = [-1] * g.vertex_count
    picks = []
    for v in _sweep_order(g, order):
        if owner[v] < 0:
            owner[v] = k = len(picks)
            picks.append(v)
            for u in g.adjacency[v]:
                if owner[u] < 0:
                    owner[u] = k
    return picks, owner


def collapse_basic(g: Graph, order: Optional[Sequence[int]] = None) -> Partition:
    """The greedy sweep's picks, each with the vertices it owns, in pick order.

    Ascending id by default. Each block is a star around its pick, so
    connected and of diameter at most two; the picks are the same sweep's
    ``greedy_mis(g, order)``. Ascending, each owner is a vertex's
    smallest-id neighbour among the picks, the canonical
    :func:`qiso.mis.mis_derived` image, so the blocks are its fibers.
    """
    picks, owner = _greedy_sweep(g, order)
    return _trusted_partition(g, owner, len(picks))


def collapse_modified(g: Graph, order: Optional[Sequence[int]] = None) -> Partition:
    """Two-phase neighborhood collapse favoring larger blocks.

    Phase one repeatedly seeds a block at a completely free vertex (one
    with no assigned neighbor) and absorbs its unassigned neighbors.
    Phase two attaches every leftover vertex to the block of its
    smallest-id neighbor assigned during phase one. Anchoring to the
    phase-one snapshot (never to another leftover) keeps every member
    within two hops of its block's seed, through members, so each block
    is connected, of diameter at most four.
    """
    sweep = _sweep_order(g, order)
    block_of = [-1] * g.vertex_count
    k = 0

    # A vertex that stops being completely free never becomes free again,
    # so one forward pass meets the seeds in the order a restart scan
    # would. A seed is completely free, so it absorbs every neighbor.
    for seed in sweep:
        if block_of[seed] < 0 and all(block_of[u] < 0 for u in g.adjacency[seed]):
            block_of[seed] = k
            for u in g.adjacency[seed]:
                block_of[u] = k
            k += 1

    anchored = block_of[:]
    for w in sweep:
        if anchored[w] < 0:
            block_of[w] = anchored[min(u for u in g.adjacency[w] if anchored[u] >= 0)]
    return _trusted_partition(g, block_of, k)


def verify_partition_qiso(pg: PartitionGraph) -> bool:
    """Check the distance inequality at :attr:`SharpnessReport.guarantee`,
    a theorem, exhaustively."""
    return bool(verify_q1(pg.mapping, *sharpness_report(pg.partition).guarantee))
