"""Outward contraction of rooted trees and path-composition center math.

Rooting a tree assigns each vertex a level (its distance to the root).
Outward contraction groups every even-level vertex with its strictly
deeper neighbors, yielding blocks of diameter at most two whose quotient
keeps the tree's center in place; rerooting passes check every root at
once. Restricting a partition to a path turns it into an integer
composition, for which the center displacement has a closed form.
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
from .graph import Graph, _bfs, _preorder, bfs_distances, center, require_tree
from .partition import Partition, _trusted_partition


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
    block, odd-level vertices join their parent's. Blocks are stars around
    their heads, in ascending head order, so connected and 2-sharp.
    """
    require_tree(t)
    t.check_vertex(root)
    head = _outward_blocks(t, root)
    heads = [v for v, h in enumerate(head) if h == v]
    index = {h: i for i, h in enumerate(heads)}
    return _trusted_partition(t, [index[h] for h in head], len(heads))


def first_center_shifting_root(t: Graph) -> Optional[int]:
    """The smallest root whose outward quotient misses the tree's center.

    None means outward contraction keeps the center for every root, as
    the paper proves. The block heads from root r are the vertices of r's
    colour in the tree's 2-colouring, one rule per colour.
    """
    require_tree(t)
    colour = [d % 2 for d in _bfs(t.adjacency, (0,))]
    kept = [_center_kept(t, [int(c == p) for c in colour]) for p in (0, 1)]
    return next((r for r, p in enumerate(colour) if not kept[p][r]), None)


def _center_kept(t: Graph, w: Sequence[int]) -> list[bool]:
    """Per root r, whether a source-center vertex lies in a center block.

    Hanging from r, each other vertex v heads a block if ``w[v]`` is 1,
    else joins its parent's. A path meets each block in one run, so
    quotient distances are path weights, each edge weighing ``w`` of its
    end farther from r. The quotient is a tree, so c's block is central
    exactly when c's eccentricity is at most half the diameter, rounded up.
    """
    first, *second = center(t)
    diam, ecc = _rooted_extents(t.adjacency, w, first, diameters=True)
    for c in second:  # the diameters do not depend on the vertex hung from
        ecc = list(map(min, ecc, _rooted_extents(t.adjacency, w, c, diameters=False)[1]))
    return [2 * e <= d + 1 for d, e in zip(diam, ecc)]


def _rooted_extents(
    adj: Sequence[Sequence[int]], w: Sequence[int], c: int, diameters: bool
) -> tuple[Optional[list[int]], list[int]]:
    """Per root r, the weighted diameter and the eccentricity of ``c``.

    Hung from c, the c-r path's edges point up and weigh ``w`` of their
    upper end; all other edges point down and weigh ``w`` of their lower
    end. An upward pass keeps each vertex's heaviest child branches and
    subtree paths; a downward pass adds what lies beyond each parent.
    Without ``diameters`` only the eccentricity terms are computed, and
    the diameters read None.
    """
    order, parent = _preorder(adj, c)
    n = len(adj)
    a1, a2, a3 = [0] * n, [0] * n, [0] * n  # three heaviest child branches
    d1, d2 = [0] * n, [0] * n  # two heaviest paths inside child subtrees
    sub = [0] * n  # heaviest path inside v's subtree
    for v in order[:0:-1]:
        p = parent[v]
        val = w[v] + a1[v]
        if val > a1[p]:
            a1[p], a2[p], a3[p] = val, a1[p], a2[p]
        elif val > a2[p]:
            a2[p], a3[p] = val, a2[p]
        elif val > a3[p]:
            a3[p] = val
        if diameters:
            sub[v] = max(d1[v], a1[v] + a2[v])
            d1[p], d2[p] = max(d1[p], sub[v]), max(d2[p], min(d1[p], sub[v]))
    up = [0] * n  # heaviest branch through v's parent
    out = [0] * n  # heaviest path outside v's subtree
    along = [0] * n  # weight of the c-v path
    off = [0] * n  # farthest reach of a branch leaving it above v
    diam, ecc = [max(d1[c], a1[c] + a2[c])] * n, [a1[c]] * n
    for v in order[1:]:
        p = parent[v]
        val = w[v] + a1[v]
        # x, y: the two heaviest child branches of p other than v's
        x, y = (a2[p], a3[p]) if val == a1[p] else (a1[p], a3[p] if val == a2[p] else a2[p])
        along[v] = along[p] + w[p]
        off[v] = max(off[p], along[p] + x)
        ecc[v] = max(off[v], along[v] + a1[v])
        if diameters:
            up[v] = w[p] + max(x, up[p])
            beside = d2[p] if sub[v] == d1[p] else d1[p]
            out[v] = max(out[p], beside, x + max(y, up[p]))
            diam[v] = max(sub[v], out[v], a1[v] + max(a2[v], up[v]))
    return (diam if diameters else None), ecc


def _outward_blocks(t: Graph, root: int) -> list[int]:
    """Each vertex's outward block from ``root``, labelled by its head.

    Even-depth vertices head their own; odd-depth ones join their parent's.
    """
    order, parent = _preorder(t.adjacency, root)
    block_of = list(range(t.vertex_count))
    for v in order[1:]:
        if block_of[parent[v]] == parent[v]:
            block_of[v] = parent[v]
    return block_of


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
    """The path a composition encodes, partitioned into its runs, each connected."""
    sizes = _composition(parts)
    n = sum(sizes)
    g = Graph(n, ((i, i + 1) for i in range(n - 1)))
    block_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    return g, _trusted_partition(g, block_of, len(sizes))


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
