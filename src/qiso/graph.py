"""Immutable simple undirected graphs and exact hop-distance metrics.

Distances are shortest-path hop counts. A :class:`Graph` never changes
after construction, so its all-pairs matrix is built once, on first use,
and cached read-only; every all-pairs metric here is a reduction over
that matrix. A tree's matrix is filled row by row in preorder, any
other graph's by a bit-parallel multi-source breadth-first search; a
tree's center and median come from leaf removal and subtree weights
without any matrix. Jobs that need only one or a few sources run the
single breadth-first search :func:`_bfs` instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    Disconnected,
    EmptyGraph,
    EmptySet,
    InvalidEdge,
    InvalidVertex,
    NotATree,
    TooLarge,
)


@dataclass(frozen=True)
class CheckResult:
    """Verdict of an exhaustive check plus the first witness of failure.

    Truthiness follows ``ok``, so results can be used directly in
    assertions while still carrying the offending vertex or pair.
    """

    ok: bool
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.ok


class Graph:
    """Simple connected undirected graph on dense vertex ids ``0..n-1``.

    Construction validates all structural invariants: endpoints in range,
    no self-loops, no parallel edges, and connectivity. Adjacency lists
    are stored sorted, which keeps every traversal deterministic.
    """

    __slots__ = ("_adj", "_edge_count", "_dist")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 1:
            raise EmptyGraph("a graph needs at least one vertex")
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidVertex(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
            if u == v:
                raise InvalidEdge(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidEdge(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(a)) for a in adj)
        self._edge_count = len(seen)
        self._dist: np.ndarray | None = None
        if min(_bfs(self._adj, (0,))) < 0:
            raise Disconnected("graph is not connected")

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def is_tree(self) -> bool:
        # Connectivity is a construction invariant, so the edge count decides.
        return self._edge_count == len(self._adj) - 1

    def vertices(self) -> range:
        return range(len(self._adj))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` with ``u < v``, in lexicographic order."""
        out = []
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < len(self._adj)):
            raise InvalidVertex(f"vertex {v} outside 0..{len(self._adj) - 1}")

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def require_tree(g: Graph) -> None:
    if not g.is_tree:
        raise NotATree(f"expected a tree, got n={g.vertex_count}, m={g.edge_count}")


def _bfs(adj: Sequence[Sequence[int]], sources: Iterable[int]) -> list[int]:
    """Hop distance from the nearest source to every vertex of ``adj``.

    Unreached vertices read -1. ``adj`` may be any adjacency list on
    ``0..len(adj)-1``, such as the relabelled subgraph of a block.
    """
    dist = [-1] * len(adj)
    queue = deque()
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dv
                queue.append(u)
    return dist


# Sources per multi-source BFS pass. A pass holds a few n x _CHUNK bit
# arrays and, each level, gathers one _CHUNK-bit row per adjacency entry.
_CHUNK = 1024

_MAX_VERTICES = 2000


def _check_size(g: Graph) -> None:
    """Raise :class:`TooLarge` for graphs above the all-pairs size guard."""
    if g.vertex_count > _MAX_VERTICES:
        raise TooLarge(
            f"all-pairs search guarded at {_MAX_VERTICES} vertices, "
            f"got {g.vertex_count}"
        )


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances as a read-only int64 matrix, cached per graph.

    The one place a matrix is built, so the one size guard: a graph above
    2000 vertices raises :class:`TooLarge` before any distance is computed.
    """
    if g._dist is None:
        _check_size(g)
        dist = _build_distances(g)
        dist.flags.writeable = False
        g._dist = dist
    return g._dist


def _build_distances(g: Graph) -> np.ndarray:
    """The int64 all-pairs matrix: preorder on a tree, else multi-source BFS."""
    adj = g.adjacency
    n = len(adj)
    if g.is_tree:
        order, parent = _preorder(adj)
        size = [1] * n
        for v in order[:0:-1]:
            size[parent[v]] += size[v]
        # rows[v, i] is the distance from v to order[i]; a subtree is the
        # contiguous preorder range starting at its root.
        rows = np.empty((n, n), dtype=np.int64)
        depth = _bfs(adj, (0,))
        rows[0] = [depth[v] for v in order]
        for i in range(1, n):
            v = order[i]
            row = rows[v]
            np.add(rows[parent[v]], 1, out=row)
            row[i : i + size[v]] -= 2
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n)
        return rows.take(pos, axis=1)
    # Multi-source BFS (Then et al., PVLDB 2014): bit j of word w in a row
    # stands for source lo + 64 * w + j, so one level of up to _CHUNK
    # searches is one gather and one OR-reduction over the CSR arrays.
    # Level d is OR-ed into bit plane i for every set bit i of d, which
    # writes each distance in binary.
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum([len(a) for a in adj], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=2 * g.edge_count)
    starts = indptr[:-1]  # no empty row: connected with a cycle, so n >= 3
    dist = np.empty((n, n), dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        k = min(_CHUNK, n - lo)
        bit = np.arange(k, dtype=np.uint64)
        frontier = np.zeros((n, -(-k // 64)), dtype=np.uint64)
        frontier[lo + bit, bit // 64] = np.uint64(1) << bit % 64
        seen = frontier.copy()
        planes: list[np.ndarray] = []
        d = 0
        while True:
            nxt = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            nxt &= ~seen
            if not nxt.any():
                break
            seen |= nxt
            d += 1
            if d.bit_length() > len(planes):
                planes.append(np.zeros_like(nxt))
            for i, plane in enumerate(planes):
                if d >> i & 1:
                    plane |= nxt
            frontier = nxt
        # Every distance is below n, so the smallest type that holds n can
        # assemble them; by symmetry the sources' columns equal their rows.
        acc = np.zeros((n, k), dtype=np.min_scalar_type(n))
        for i, plane in enumerate(planes):
            # Little-endian words list source bits in order on any host.
            bits = plane.astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(bits, axis=1, count=k, bitorder="little")
            acc |= np.left_shift(bits, i, dtype=acc.dtype)
        dist[:, lo : lo + k] = acc
    return dist


def _preorder(adj: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Depth-first preorder of a tree from vertex 0, and each vertex's parent.

    The root's parent reads -1. Every subtree occupies a contiguous range
    of the order, starting at its root.
    """
    parent = [-1] * len(adj)
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    return order, parent


def _tree_median(adj: Sequence[Sequence[int]], weights: Sequence) -> tuple[int, ...]:
    """Weighted median of a tree with positive weights, ascending.

    A vertex is a median exactly when no component of the tree minus that
    vertex carries more than half the total weight (Goldman 1971); the
    comparison ``2 * heaviest <= total`` is exact for ints and Fractions.
    """
    order, parent = _preorder(adj)
    below = list(weights)  # weight of the subtree under each vertex
    heaviest = [0] * len(adj)  # heaviest child subtree
    for v in order[:0:-1]:
        p = parent[v]
        below[p] += below[v]
        heaviest[p] = max(heaviest[p], below[v])
    total = below[0]
    return tuple(
        v
        for v in range(len(adj))
        if 2 * max(heaviest[v], total - below[v]) <= total
    )


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distance from ``source`` to every vertex, indexed by vertex id.

    All entries are finite because graphs are connected by construction.
    """
    g.check_vertex(source)
    return _bfs(g.adjacency, (source,))


def distance(g: Graph, u: int, v: int) -> int:
    """Hop distance between two vertices (single BFS)."""
    g.check_vertex(v)
    return bfs_distances(g, u)[v]


def _checked_set(g: Graph, s: Sequence[int], name: str) -> list[int]:
    members = list(s)
    if not members:
        raise EmptySet(f"{name} must not be empty")
    for v in members:
        g.check_vertex(v)
    return members


def set_distance(g: Graph, s1: Sequence[int], s2: Sequence[int]) -> int:
    """Minimum hop distance over all pairs drawn from the two sets.

    Zero exactly when the sets intersect.
    """
    a = _checked_set(g, s1, "s1")
    b = _checked_set(g, s2, "s2")
    dist = _bfs(g.adjacency, a)
    return min(dist[v] for v in b)


@dataclass(frozen=True)
class EccentricityProfile:
    """Per-vertex eccentricities with their witnesses, radius and diameter.

    ``witnesses[v]`` lists, in ascending order, every vertex realizing
    ``eccentricity[v]``.
    """

    eccentricity: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]
    radius: int
    diameter: int


def eccentricity_profile(g: Graph) -> EccentricityProfile:
    """Eccentricity of every vertex, with witnesses, from the distance matrix."""
    dist = distance_matrix(g)
    ecc = dist.max(axis=1)
    return EccentricityProfile(
        eccentricity=tuple(ecc.tolist()),
        witnesses=tuple(
            tuple(np.flatnonzero(row == e).tolist()) for row, e in zip(dist, ecc)
        ),
        radius=int(ecc.min()),
        diameter=int(ecc.max()),
    )


def _argmin_all(values: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(values == values.min()).tolist())


def center(g: Graph) -> tuple[int, ...]:
    """Vertices of minimum eccentricity, ascending (leaf removal on a tree)."""
    return _extremes(g)[0]


def _extremes(g: Graph) -> tuple[tuple[int, ...], int, int]:
    """Center, radius and diameter: leaf removal on a tree, else the matrix."""
    if g.is_tree:
        cen, rounds = _leaf_removal(g.adjacency)
        return cen, rounds + len(cen) - 1, 2 * rounds + len(cen) - 1
    ecc = distance_matrix(g).max(axis=1)
    return _argmin_all(ecc), int(ecc.min()), int(ecc.max())


def distance_sum(g: Graph, v: int) -> int:
    """Sum of hop distances from ``v`` to every vertex."""
    g.check_vertex(v)
    return int(distance_matrix(g)[v].sum())


def median(g: Graph) -> tuple[int, ...]:
    """Vertices of minimum distance-sum, ascending (subtree sizes on a tree)."""
    if g.is_tree:
        return _tree_median(g.adjacency, [1] * g.vertex_count)
    return _argmin_all(distance_matrix(g).sum(axis=1))


def leaf_removal_center(t: Graph) -> tuple[int, ...]:
    """Locate a tree's center by repeatedly deleting all current leaves.

    Returns the one or two surviving vertices, ascending: the vertices of
    minimum eccentricity (Jordan).
    """
    require_tree(t)
    return _leaf_removal(t.adjacency)[0]


def _leaf_removal(adj: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """A tree's center and the number of leaf layers deleted to reach it.

    Each round lowers every remaining eccentricity by one, so with ``r``
    rounds the radius is ``r + len(center) - 1`` and the diameter
    ``2 * r + len(center) - 1``.
    """
    n = len(adj)
    if n <= 2:
        return tuple(range(n)), 0
    degree = [len(a) for a in adj]
    removed = bytearray(n)
    layer = [v for v in range(n) if degree[v] == 1]
    alive = n
    rounds = 0
    while alive > 2:
        nxt = []
        for v in layer:
            removed[v] = 1
            for u in adj[v]:
                if not removed[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        alive -= len(layer)
        layer = nxt
        rounds += 1
    return tuple(v for v in range(n) if not removed[v]), rounds


def diameter_path(t: Graph) -> list[int]:
    """A path of a tree whose length equals the diameter (double BFS).

    Endpoint ties break toward the smallest vertex id, so the result is
    deterministic.
    """
    require_tree(t)
    adj = t.adjacency
    d0 = _bfs(adj, (0,))
    u = d0.index(max(d0))
    dist = _bfs(adj, (u,))
    w = dist.index(max(dist))
    # Walk back toward u; in a tree exactly one neighbor is one step closer.
    path = [w]
    while path[-1] != u:
        v = path[-1]
        path.append(next(x for x in adj[v] if dist[x] == dist[v] - 1))
    path.reverse()
    return path


def uni_ecc_holds(g: Graph) -> CheckResult:
    """Whether distance to the center equals eccentricity minus radius.

    The property holds for every tree but fails on some graphs; the first
    violating vertex (ascending) is returned as the witness.
    """
    dist = distance_matrix(g)
    ecc = dist.max(axis=1)
    rad = ecc.min()
    to_center = dist[:, ecc == rad].min(axis=1)
    bad = np.flatnonzero(to_center != ecc - rad)
    if len(bad):
        return CheckResult(False, int(bad[0]))
    return CheckResult(True)
