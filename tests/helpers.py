"""Seeded instance builders shared by the test modules."""

import random

from qiso.generators import random_connected_graph, random_tree
from qiso.graph import Graph


def seeded_graph(seed, min_n=4, max_n=40, density=3):
    """Random connected graph with size and edge count drawn from the seed."""
    rng = random.Random(seed)
    n = rng.randrange(min_n, max_n + 1)
    max_m = n * (n - 1) // 2
    m = rng.randrange(n - 1, min(max_m, density * n) + 1)
    return random_connected_graph(n, m, seed)


def seeded_tree(seed, min_n=1, max_n=60):
    rng = random.Random(seed ^ 0x5EED)
    n = rng.randrange(min_n, max_n + 1)
    return random_tree(n, seed)


def seeded_weights(seed, n, hi=9):
    rng = random.Random(seed * 31 + 7)
    return tuple(rng.randrange(1, hi + 1) for _ in range(n))


def assert_validated_equal(h, edges):
    """``h``, built unchecked, equals ``Graph`` validated on ``edges``."""
    ref = Graph(h.vertex_count, edges)
    assert h.adjacency == ref.adjacency
    assert (h.edge_count, h.is_tree) == (ref.edge_count, ref.is_tree)
    assert h == ref and hash(h) == hash(ref)
    assert type(h.adjacency) is tuple
    assert all(type(row) is tuple for row in h.adjacency)
    assert all(type(v) is int for row in h.adjacency for v in row)
