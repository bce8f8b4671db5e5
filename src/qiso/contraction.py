"""Outward contraction of rooted trees and path-composition center math.

Rooting a tree assigns each vertex a level (its distance to the root).
Outward contraction groups every even-level vertex with its strictly
deeper neighbors, yielding blocks of diameter at most two whose quotient
keeps the tree's center in place. Checking that for every root builds
no partition: one search per root assigns the blocks, and the heights of
the quotient's blocks locate its center. Restricting a partition to a
path turns it into an integer composition, for which the center
displacement has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence

from .errors import (
    EmptyComposition,
    InvalidComposition,
    InvalidPath,
    NotContiguous,
)
from .graph import Graph, bfs_distances, center, require_tree
from .partition import Partition


@dataclass(frozen=True)
class RootedTree:
    """A tree with a designated root and per-vertex levels."""

    tree: Graph
    root: int
    level: tuple[int, ...]


def root_tree(t: Graph, root: int) -> RootedTree:
    require_tree(t)
    t.check_vertex(root)
    return RootedTree(tree=t, root=root, level=tuple(bfs_distances(t, root)))


def outward_contraction(t: Graph, root: int) -> Partition:
    """Partition a tree by grouping even-level vertices with deeper neighbors.

    Every vertex lands in exactly one block: even-level vertices own a
    block, odd-level vertices join their parent's. Blocks are singletons,
    edges or stars, so the partition is 2-sharp.
    """
    require_tree(t)
    t.check_vertex(root)
    members: list[list[int]] = [[] for _ in t.vertices()]
    for v, head in enumerate(_outward_blocks(t, root)[2]):
        members[head].append(v)
    # Only heads collect members, so blocks come in ascending head order.
    return Partition(t, [blk for blk in members if blk])


def first_center_shifting_root(t: Graph) -> Optional[int]:
    """The smallest root whose outward quotient misses the tree's center.

    None means outward contraction keeps the center for every root, as
    the paper proves. Each root costs one search and one pass over flat
    lists; no partition, quotient or mapping is built.
    """
    require_tree(t)
    src_center = center(t)
    for root in t.vertices():
        if not _keeps_center(*_outward_blocks(t, root), src_center):
            return root
    return None


def _outward_blocks(t: Graph, root: int) -> tuple[list[int], list[int], list[int]]:
    """Search order from ``root``, parents, and each vertex's outward block.

    A vertex at even depth heads its own block, labelled by its id; a
    vertex at odd depth joins its parent's. The root's parent reads -1.
    """
    adj = t.adjacency
    parent = [-1] * len(adj)
    block_of = list(range(len(adj)))
    order = [root]
    for v in order:  # grows while it is walked: a breadth-first search
        pv = parent[v]
        head = block_of[v] == v
        for u in adj[v]:
            if u != pv:
                parent[u] = v
                if head:
                    block_of[u] = v
                order.append(u)
    return order, parent, block_of


def _keeps_center(
    order: Sequence[int],
    parent: Sequence[int],
    block_of: Sequence[int],
    src_center: Sequence[int],
) -> bool:
    """Whether a source-center vertex lies in a center block of the quotient.

    ``order`` lists a tree's vertices parents first and ``block_of`` cuts
    it into connected blocks labelled below ``len(order)``. The quotient
    is then a tree rooted at the root's block, and a block's top vertex
    (the one whose parent lies in another block) comes after the tops of
    all blocks above it. Walking the order backwards therefore finishes
    each block's height before its top is reached, and the center is the
    middle of the longest quotient path, found from that path's peak.
    """
    n = len(order)
    best = [0] * n  # height of each block's quotient subtree
    second = [0] * n  # height through its second-best child block
    down = [-1] * n  # the child block that attains ``best``
    peak = block_of[order[0]]
    for v in reversed(order):
        p = parent[v]
        if p < 0:
            continue
        b, pb = block_of[v], block_of[p]
        if b == pb:
            continue
        h = best[b] + 1
        if h > best[pb]:
            second[pb] = best[pb]
            best[pb] = h
            down[pb] = b
        elif h > second[pb]:
            second[pb] = h
        if best[pb] + second[pb] > best[peak] + second[peak]:
            peak = pb
    mid = peak
    for _ in range((best[peak] - second[peak]) // 2):
        mid = down[mid]
    middle = {mid}
    if (best[peak] - second[peak]) % 2:
        middle.add(down[mid])
    return any(block_of[c] in middle for c in src_center)


def _check_path(g: Graph, path: Sequence[int]) -> list[int]:
    verts = list(path)
    if not verts:
        raise InvalidPath("path must not be empty")
    for v in verts:
        g.check_vertex(v)
    if len(set(verts)) != len(verts):
        raise InvalidPath("path repeats a vertex")
    for a, b in zip(verts, verts[1:]):
        if b not in g.adjacency[a]:
            raise InvalidPath(f"{a} and {b} are not adjacent")
    return verts


def turning_point(rt: RootedTree, path: Sequence[int]) -> Optional[int]:
    """The unique interior level minimum of a path, or None when monotone.

    On a rooted tree, levels along a simple path strictly fall toward a
    single lowest vertex and then strictly rise, so the minimum-level
    vertex is unique; the path is monotone exactly when it sits at an
    endpoint.
    """
    verts = _check_path(rt.tree, path)
    lev = rt.level
    lowest = min(range(len(verts)), key=lambda i: lev[verts[i]])
    if lowest in (0, len(verts) - 1):
        return None
    return verts[lowest]


def restrict_to_path(p: Partition, path: Sequence[int]) -> list[int]:
    """Sizes of the nonempty block intersections along a path.

    Each block must meet the path in one contiguous run; the run lengths,
    in path order, form an integer composition of the path's length.
    """
    verts = _check_path(p.graph, path)
    runs = [(blk, len(list(grp))) for blk, grp in groupby(p.block_of[v] for v in verts)]
    seen = set()
    for blk, _ in runs:
        if blk in seen:
            raise NotContiguous(f"block {blk} meets the path in separate segments")
        seen.add(blk)
    return [size for _, size in runs]


def _center_indices(k: int) -> tuple[int, ...]:
    # 1-based, like positions along the composition.
    if k % 2 == 1:
        return ((k + 1) // 2,)
    return (k // 2, k // 2 + 1)


def _composition(parts: Sequence[int]) -> list[int]:
    sizes = list(parts)
    if not sizes:
        raise EmptyComposition("composition must have at least one part")
    if any(x < 1 for x in sizes):
        raise InvalidComposition(f"parts must be positive: {sizes}")
    return sizes


def composition_center_shift(parts: Sequence[int]) -> int:
    """Center displacement of a partitioned path, from block sizes alone.

    With center-sum, left-sum and right-sum of the composition written
    sigma, lam and rho, the shift is 0 when sigma >= |lam - rho| and
    ceil((|lam - rho| - sigma) / 2) otherwise.
    """
    sizes = _composition(parts)
    centers = _center_indices(len(sizes))
    sigma = sum(sizes[i - 1] for i in centers)
    lam = sum(sizes[: centers[0] - 1])
    rho = sum(sizes[centers[-1]:])
    gap = abs(lam - rho) - sigma
    return 0 if gap <= 0 else (gap + 1) // 2


def composition_partition(parts: Sequence[int]) -> tuple[Graph, Partition]:
    """The path graph and consecutive-block partition a composition encodes."""
    sizes = _composition(parts)
    n = sum(sizes)
    g = Graph(n, ((i, i + 1) for i in range(n - 1)))
    blocks = []
    start = 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    return g, Partition(g, blocks)


def unbounded_shift_family(t: int) -> tuple[Graph, Partition]:
    """A 2-sharp partitioned path whose center displacement is exactly ``t``.

    Built from the composition of ``t`` threes followed by ``t + 1``
    ones: its center-sum is 1, left-sum ``3t`` and right-sum ``t``, so
    the closed form gives shift ``t``. Shows the displacement of general
    partition-trees is unbounded even at sharpness two.
    """
    if t < 1:
        raise InvalidComposition(f"family parameter must be >= 1, got {t}")
    return composition_partition([3] * t + [1] * (t + 1))
