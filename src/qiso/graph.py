"""Immutable simple undirected graphs and exact hop-distance metrics.

Distances are shortest-path hop counts. A :class:`Graph` never changes
after construction, so its all-pairs matrix is built once, on first use,
and cached read-only in the smallest signed integer type that holds n;
every all-pairs metric here, and every pair claim in :mod:`qiso.quasi`,
reads that one store in place. A tree also caches its preorder from
vertex 0 (:func:`_tree_preorder`), which every tree pass rooted there
reads. A tree's matrix is filled row by row in that preorder, any other
graph's by a bit-parallel multi-source breadth-first search over the
graph's cached CSR arrays. Its level loop (:func:`_bfs_levels`), from
any sources, also measures in one sweep the diameter of every subgraph
that a labelling of the vertices induces (:func:`_induced_diameters`),
and gives each source the others within a radius (:func:`_within`). Each
graph caches its eccentricities (:func:`_eccentricities`), which give
its center, radius and diameter: on a tree, every vertex's heaviest path
from one top-two pass (:func:`_heaviest_paths`), without any matrix,
else the matrix's row maxima. Medians, plain and weighted, have one
owner (:func:`_median`): subtree weights on a tree, else one exact
integer product with the matrix. Jobs that need only one or a few
sources run the single breadth-first search :func:`_bfs` instead.

numpy serves only the all-pairs layer (the matrix, the CSR arrays and
the multi-source search), and each function that computes with it
imports it on first use: building a graph, :func:`_bfs` and the
matrix-free tree passes load no numpy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import (
    Disconnected,
    EmptyGraph,
    EmptySet,
    InvalidEdge,
    InvalidVertex,
    NotATree,
    TooLarge,
)

if TYPE_CHECKING:
    import numpy as np


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

    Every graph built from outside input, parsed or passed to
    ``Graph(...)``, is validated. Only the two graphs the package derives
    from a graph it already holds skip the checks: a partition's quotient
    and an independent set's distance-3 graph, built by
    :func:`_trusted_graph`. The functions that make them give sorted,
    simple adjacency, and each docstring proves the result connected; the
    tests check both against this constructor on seeded ensembles.
    """

    __slots__ = ("_adj", "_edge_count", "_dist", "_tree", "_csr", "_ecc")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 1:
            raise EmptyGraph("a graph needs at least one vertex")
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        seen: set[int] = set()  # each edge as u * n + v, u < v
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidVertex(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
            if u == v:
                raise InvalidEdge(f"self-loop at vertex {u}")
            key = u * vertex_count + v if u < v else v * vertex_count + u
            if key in seen:
                raise InvalidEdge(f"duplicate edge {divmod(key, vertex_count)}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self._fill(tuple(tuple(sorted(a)) for a in adj), len(seen))
        if min(_bfs(self._adj, (0,))) < 0:
            raise Disconnected("graph is not connected")

    def _fill(self, adj: tuple[tuple[int, ...], ...], edge_count: int) -> None:
        """Set every slot: the one place a graph's slots are first written."""
        self._adj = adj
        self._edge_count = edge_count
        self._dist: np.ndarray | None = None
        self._tree: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        self._ecc: tuple[int, ...] | None = None

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
        return [(u, v) for u, nbrs in enumerate(self._adj) for v in nbrs if u < v]

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


def _trusted_graph(adj: tuple[tuple[int, ...], ...]) -> Graph:
    """A :class:`Graph` on adjacency that is valid by construction, unchecked.

    ``adj`` must be what validation would have built: one sorted tuple of
    Python ints per vertex, at least one vertex, no self-loop, no repeated
    neighbour, each edge listed from both ends, and connected. The caller
    owns that proof; nothing here checks it.
    """
    g = Graph.__new__(Graph)
    g._fill(adj, sum(map(len, adj)) // 2)
    return g


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


# Sources per multi-source BFS pass (:func:`_bfs_levels`). A pass holds a
# few n x _CHUNK bit arrays and, each level, gathers one _CHUNK-bit row per
# adjacency entry.
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
    """All-pairs hop distances, cached per graph as its one distance store.

    Read-only, C-contiguous, in ``np.min_scalar_type(-n)``: int8 up to 128
    vertices, else int16. It is signed, so a difference of two distances
    never wraps; callers widen before any arithmetic that can exceed n.
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
    """The all-pairs matrix: preorder on a tree, else multi-source BFS."""
    import numpy as np

    adj = g.adjacency
    n = len(adj)
    dtype = np.min_scalar_type(-n)
    if g.is_tree:
        order, parent = _tree_preorder(g)
        size = [1] * n
        for v in order[:0:-1]:
            size[parent[v]] += size[v]
        # rows[v, i] is the distance from v to order[i]; a subtree is the
        # contiguous preorder range starting at its root.
        rows = np.empty((n, n), dtype=dtype)
        depth = _bfs(adj, (0,))
        rows[0] = [depth[v] for v in order]
        for i in range(1, n):
            v = order[i]
            row = rows[v]
            np.add(rows[parent[v]], 1, out=row)  # may wrap at n; the modular -= 2 restores it
            row[i : i + size[v]] -= 2
        pos = np.argsort(order)  # each vertex's preorder position
        for lo in range(0, n, _CHUNK):  # columns back to vertex order, a chunk at a time
            rows[lo : lo + _CHUNK] = rows[lo : lo + _CHUNK].take(pos, axis=1)
        return rows
    # Level d is OR-ed into bit plane i for every set bit i of d, which
    # writes each distance in binary.
    indptr, indices = _csr(g)
    dist = np.zeros((n, n), dtype=dtype)
    for lo in range(0, n, _CHUNK):
        k = min(_CHUNK, n - lo)
        planes: list[np.ndarray] = []
        for d, nxt in enumerate(_bfs_levels(indptr, indices, range(lo, lo + k)), start=1):
            if d.bit_length() > len(planes):
                planes.append(np.zeros_like(nxt))
            for i, plane in enumerate(planes):
                if d >> i & 1:
                    plane |= nxt
        # By symmetry the sources' columns equal their rows.
        for i, plane in enumerate(planes):
            dist[:, lo : lo + k] |= np.left_shift(_source_bits(plane, k), i, dtype=dtype)
    return dist


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency lists as read-only CSR arrays, cached per graph."""
    if g._csr is None:
        import numpy as np

        adj = g.adjacency
        indptr = np.zeros(len(adj) + 1, dtype=np.intp)
        np.cumsum([len(a) for a in adj], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=indptr[-1])
        indptr.flags.writeable = indices.flags.writeable = False
        g._csr = indptr, indices
    return g._csr


def _bfs_levels(
    indptr: np.ndarray, indices: np.ndarray, sources: Sequence[int]
) -> Iterator[np.ndarray]:
    """Multi-source BFS from each of ``sources`` over CSR arrays, level by level.

    Bit-parallel (Then et al., PVLDB 2014): bit j of word w in a row stands
    for ``sources[64 * w + j]``, so one level of all k searches is one
    gather and one OR-reduction. Yields, for d = 1, 2, ..., the bits of
    the sources whose search first reaches each vertex at level d (never
    at the source itself), as an n x ceil(k / 64) uint64 array. Past one
    vertex no CSR row may be empty: ``reduceat`` returns the entry at an
    empty segment's start, not zero.
    """
    import numpy as np

    if not len(indices):
        return
    bit = np.arange(len(sources), dtype=np.uint64)
    frontier = np.zeros((len(indptr) - 1, -(-len(bit) // 64)), dtype=np.uint64)
    frontier[sources, bit // 64] = np.uint64(1) << bit % 64
    seen = frontier.copy()
    starts = indptr[:-1]
    while True:
        nxt = np.bitwise_or.reduceat(frontier.take(indices, axis=0), starts, axis=0)
        nxt &= ~seen
        if not nxt.any():
            return
        seen |= nxt
        yield nxt
        frontier = nxt


def _source_bits(words: np.ndarray, k: int) -> np.ndarray:
    """The first k source bits of each row of uint64 words, as 0/1 bytes."""
    import numpy as np

    # Little-endian words list source bits in order on any host.
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=k, bitorder="little")


def _induced_diameters(g: Graph, label: Sequence[int], count: int) -> list[int]:
    """Diameter of the subgraph each label ``0 .. count-1`` induces.

    Each labelled vertex set must induce a connected subgraph. One
    multi-source BFS from every vertex runs over the edges inside the
    sets plus a self-loop per vertex, which keeps every CSR row non-empty
    and adds nothing, as a vertex's own bit is seen from the start. A
    vertex's eccentricity in its set is the last level at which its
    source bit newly reaches a vertex; a set's diameter is the largest.
    """
    import numpy as np

    n = g.vertex_count
    indptr, indices = _csr(g)
    lab = np.asarray(label, dtype=np.intp)
    inner = np.repeat(lab, np.diff(indptr)) == lab[indices]
    kept = np.concatenate(([0], np.cumsum(inner)))[indptr]  # inner entries before each row
    inner_indices = np.insert(indices[inner], kept[:-1], np.arange(n))
    inner_indptr = kept + np.arange(n + 1)
    ecc = np.zeros(n, dtype=np.intp)
    for lo in range(0, n, _CHUNK):
        k = min(_CHUNK, n - lo)
        levels = _bfs_levels(inner_indptr, inner_indices, range(lo, lo + k))
        for d, nxt in enumerate(levels, start=1):
            reached = _source_bits(np.bitwise_or.reduce(nxt, axis=0), k)
            ecc[lo + np.flatnonzero(reached)] = d
    diameters = np.zeros(count, dtype=np.intp)
    np.maximum.at(diameters, lab, ecc)
    return diameters.tolist()


def _within(g: Graph, sources: Sequence[int], radius: int) -> tuple[tuple[int, ...], ...]:
    """For each source, the indices of the other sources within ``radius``, ascending."""
    import numpy as np

    _check_size(g)  # an all-pairs search, like the matrix
    src = np.asarray(sources, dtype=np.intp)  # a tuple would index several axes
    partners: list[tuple[int, ...]] = []
    for roots in np.split(src, range(_CHUNK, len(src), _CHUNK)):
        near = np.zeros((len(src), -(-len(roots) // 64)), dtype=np.uint64)
        for nxt in islice(_bfs_levels(*_csr(g), roots), radius):
            near |= nxt.take(src, axis=0)
        hit = _source_bits(near, len(roots)).view(bool).T  # hit[j, i]: roots[j] is near src[i]
        cols = (np.flatnonzero(hit) % len(src)).tolist()
        ends = np.cumsum(np.count_nonzero(hit, axis=1)).tolist()
        partners += (tuple(cols[a:b]) for a, b in zip([0, *ends], ends))
    return tuple(partners)


def _preorder(adj: Sequence[Sequence[int]], root: int = 0) -> tuple[list[int], list[int]]:
    """Depth-first preorder of a tree from ``root``, and each vertex's parent.

    The root's parent reads -1. Every subtree occupies a contiguous range
    of the order, starting at its root.
    """
    parent = [-1] * len(adj)
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    return order, parent


def _tree_preorder(t: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A tree's :func:`_preorder` from vertex 0, cached per graph as tuples.

    Every tree pass rooted at vertex 0 reads this one copy, as every
    all-pairs reduction reads the one cached matrix.
    """
    if t._tree is None:
        order, parent = _preorder(t.adjacency)
        t._tree = tuple(order), tuple(parent)
    return t._tree


def _down_paths(t: Graph, w: Sequence[int]) -> tuple[list[int], list[int]]:
    """Each vertex's heaviest and second-heaviest downward path, by distinct children.

    ``w[v]`` weighs the edge from v to its parent in the tree rooted at
    vertex 0; the empty path weighs 0 and is in both.
    """
    order, parent = _tree_preorder(t)
    top1 = [0] * len(order)
    top2 = [0] * len(order)
    for v in order[:0:-1]:
        p = parent[v]
        val = w[v] + top1[v]
        if val > top1[p]:
            top1[p], top2[p] = val, top1[p]
        elif val > top2[p]:
            top2[p] = val
    return top1, top2


def _heaviest_paths(t: Graph, w: Sequence[int]) -> list[int]:
    """Each vertex's heaviest path to any vertex, edges weighed as in :func:`_down_paths`.

    A vertex's heaviest path down is ``top1`` (the empty path weighs 0);
    a rerooting pass adds the heaviest one through its parent p, which
    goes on up from p or down p's best branch other than v's.
    """
    order, parent = _tree_preorder(t)
    top1, top2 = _down_paths(t, w)
    up = [0] * len(order)  # heaviest path from v through its parent
    best = top1[:]
    for v in order[1:]:
        p = parent[v]
        val = w[v] + top1[v]
        up[v] = w[v] + max(up[p], top2[p] if val == top1[p] else top1[p])
        if up[v] > best[v]:
            best[v] = up[v]
    return best


def _median(g: Graph, weights: Sequence[int]) -> tuple[int, ...]:
    """Vertices minimizing the ``weights``-weighted distance-sum, ascending.

    The weights are positive ints, so every sum is an exact int: subtree
    weights on a tree, else one product with the distance matrix, in
    int64 while no sum can reach 2**63 (each is at most (n - 1) * total)
    and in Python ints beyond.
    """
    if g.is_tree:
        return _tree_median(g, weights)
    import numpy as np

    if (g.vertex_count - 1) * sum(weights) < 2**63:
        # einsum's integer kernel is faster here than matmul's.
        sums = np.einsum("ij,j->i", distance_matrix(g), np.array(weights, dtype=np.int64))
    else:
        sums = distance_matrix(g).astype(object) @ np.array(weights, dtype=object)
    return tuple(np.flatnonzero(sums == sums.min()).tolist())


def _tree_median(t: Graph, weights: Sequence[int]) -> tuple[int, ...]:
    """Weighted median of a tree with positive weights, ascending.

    A vertex is a median exactly when no component of the tree minus that
    vertex carries more than half the total weight (Goldman 1971).
    """
    order, parent = _tree_preorder(t)
    below = list(weights)  # weight of the subtree under each vertex
    heaviest = [0] * len(order)  # heaviest child subtree
    for v in order[:0:-1]:
        p = parent[v]
        below[p] += below[v]
        heaviest[p] = max(heaviest[p], below[v])
    total = below[0]
    return tuple(
        v
        for v in range(len(order))
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


def _eccentricities(g: Graph) -> tuple[int, ...]:
    """Every vertex's eccentricity, cached per graph: the one place it is computed.

    On a tree, each vertex's heaviest path at unit weights
    (:func:`_heaviest_paths`), with no matrix; else the row maxima of
    the distance matrix.
    """
    if g._ecc is None:
        if g.is_tree:
            g._ecc = tuple(_heaviest_paths(g, [1] * g.vertex_count))
        else:
            g._ecc = tuple(distance_matrix(g).max(axis=1).tolist())
    return g._ecc


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
    """Eccentricity of every vertex, with witnesses read off the distance matrix."""
    import numpy as np

    ecc = _eccentricities(g)
    return EccentricityProfile(
        eccentricity=ecc,
        witnesses=tuple(
            tuple(np.flatnonzero(row == e).tolist()) for row, e in zip(distance_matrix(g), ecc)
        ),
        radius=min(ecc),
        diameter=max(ecc),
    )


def center(g: Graph) -> tuple[int, ...]:
    """Vertices of minimum eccentricity, ascending."""
    return _extremes(g)[0]


def _extremes(g: Graph) -> tuple[tuple[int, ...], int, int]:
    """Center, radius and diameter, from the cached eccentricities."""
    ecc = _eccentricities(g)
    radius = min(ecc)
    return tuple(v for v, e in enumerate(ecc) if e == radius), radius, max(ecc)


def distance_sum(g: Graph, v: int) -> int:
    """Sum of hop distances from ``v`` to every vertex (one BFS)."""
    return sum(bfs_distances(g, v))


def median(g: Graph) -> tuple[int, ...]:
    """Vertices of minimum distance-sum, ascending (subtree sizes on a tree)."""
    return _median(g, [1] * g.vertex_count)


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
    violating vertex (ascending) is returned as the witness. One search
    from the center gives every vertex's distance to it.
    """
    cen, radius, _ = _extremes(g)
    to_center = _bfs(g.adjacency, cen)
    ecc = _eccentricities(g)
    bad = next((v for v, d in enumerate(to_center) if d != ecc[v] - radius), None)
    return CheckResult(bad is None, bad)
