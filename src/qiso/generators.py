"""Deterministic graph families and seeded random ensembles.

Random constructions take an explicit seed and are bit-reproducible:
the same seed and parameters always yield the same edge list. Trees are
sampled by decoding a random Pruefer sequence.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, compress

from .errors import EmptyGraph, InvalidEdgeCount
from .graph import Graph
from .partition import Partition, _trusted_partition


def _require_size(n: int) -> None:
    if n < 1:
        raise EmptyGraph(f"need at least one vertex, got n={n}")


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices: edges {i, i+1}."""
    _require_size(n)
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star on ``n`` vertices with hub 0."""
    _require_size(n)
    return Graph(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` vertices."""
    _require_size(n)
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices (``n >= 3``)."""
    if n < 3:
        raise InvalidEdgeCount(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A uniformly random labeled tree on ``n >= 1`` vertices, decoded
    from a random Pruefer sequence."""
    if n <= 2:
        return [(0, 1)] if n == 2 else []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniformly random labeled tree from a seeded Pruefer sequence."""
    _require_size(n)
    return Graph(n, _random_tree_edges(n, random.Random(seed)))


def random_connected_graph(n: int, m: int, seed: int) -> Graph:
    """Random connected graph: a random spanning tree plus random edges."""
    _require_size(n)
    max_edges = n * (n - 1) // 2
    if not (n - 1 <= m <= max_edges):
        raise InvalidEdgeCount(
            f"need {n - 1} <= m <= {max_edges} for n={n}, got m={m}"
        )
    rng = random.Random(seed)
    edges = set(_random_tree_edges(n, rng))
    extra = m - len(edges)
    if extra > 0:
        missing = max_edges - len(edges)
        if extra * 3 >= missing:
            # Index i draws the i-th missing pair in lexicographic order;
            # sample() draws by length alone, as from a list of those pairs.
            chosen = bytearray(missing)
            for i in rng.sample(range(missing), extra):
                chosen[i] = 1
            pairs = (e for e in combinations(range(n), 2) if e not in edges)
            edges.update(list(compress(pairs, chosen)))
        else:
            while extra > 0:
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u == v:
                    continue
                e = (min(u, v), max(u, v))
                if e not in edges:
                    edges.add(e)
                    extra -= 1
    return Graph(n, sorted(edges))


def random_partition(g: Graph, seed: int) -> Partition:
    """Random connected-block partition from a random edge subset.

    Each edge is kept independently with probability 1/2; the blocks are
    the components of the kept subgraph, in order of smallest member, so
    each is connected.
    """
    rng = random.Random(seed)
    kept: dict[int, list[int]] = {v: [] for v in g.vertices()}
    for u, v in g.edges():
        if rng.random() < 0.5:
            kept[u].append(v)
            kept[v].append(u)
    block_of = [-1] * g.vertex_count
    k = 0
    for s in g.vertices():
        if block_of[s] >= 0:
            continue
        block_of[s] = k
        stack = [s]
        while stack:
            v = stack.pop()
            for u in kept[v]:
                if block_of[u] < 0:
                    block_of[u] = k
                    stack.append(u)
        k += 1
    return _trusted_partition(g, block_of, k)


# Chordal graph violating the uniform-eccentricity property: the center
# is the single vertex 0 with eccentricity 2, while vertex 5 sits at
# distance 2 from the center with eccentricity 3. Found by the exhaustive
# search in scripts/find_chordal_counterexample.py and frozen here; the
# test suite re-verifies every property of this constant.
NON_UNIECC_CHORDAL_VERTEX_COUNT = 8
NON_UNIECC_CHORDAL_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (1, 4),
    (1, 7),
    (2, 3),
    (2, 6),
    (3, 4),
    (3, 5),
    (4, 5),
)


def non_uniecc_chordal() -> Graph:
    """The frozen chordal counterexample to uniform eccentricity."""
    return Graph(NON_UNIECC_CHORDAL_VERTEX_COUNT, NON_UNIECC_CHORDAL_EDGES)
