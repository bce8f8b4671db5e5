"""Outward contraction of rooted trees and path-composition center math.

Rooting a tree assigns each vertex a level (its distance to the root).
Outward contraction groups every even-level vertex with its strictly
deeper neighbors, yielding blocks of diameter at most two whose quotient
keeps the tree's center in place. Restricting a partition to a path
turns it into an integer composition, for which the center displacement
has a closed form.
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
from .graph import Graph, bfs_distances, require_tree
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
    rt = root_tree(t, root)
    lev = rt.level
    blocks = []
    for v in t.vertices():
        if lev[v] % 2 == 0:
            blk = [v] + [u for u in t.adjacency[v] if lev[u] > lev[v]]
            blocks.append(blk)
    return Partition(t, blocks)


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
