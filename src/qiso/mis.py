"""Maximal independent sets and the distance-3 derived graph.

The derived graph keeps only the vertices of a maximal independent set
and joins two of them whenever their original distance is at most three.
The canonical mapping fixes set members and sends every other vertex to
its smallest-id neighbor inside the set. The derived graph of a maximal
independent set is simple and connected by construction, so its
adjacency is read off the members' distance rows and not validated
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import InvalidMapping, NotIndependent, NotMaximal
from .graph import CheckResult, Graph, _trusted_graph, distance_matrix
from .partition import _sweep_order
from .quasi import VertexMapping, _first_violation, _trusted_mapping


def greedy_mis(g: Graph, order: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """Greedy maximal independent set, ascending vertex id by default.

    ``order`` may supply any permutation of the vertices; the sweep adds
    a vertex whenever none of its neighbors has been added before it.
    """
    n = g.vertex_count
    chosen = bytearray(n)
    blocked = bytearray(n)
    for v in _sweep_order(g, order):
        if not blocked[v]:
            chosen[v] = 1
            blocked[v] = 1
            for u in g.adjacency[v]:
                blocked[u] = 1
    return tuple(v for v in range(n) if chosen[v])


def check_independent(g: Graph, s: Sequence[int]) -> None:
    members = set(s)
    for v in members:
        g.check_vertex(v)
        for u in g.adjacency[v]:
            if u in members:
                raise NotIndependent(f"edge ({min(u, v)}, {max(u, v)}) inside the set")


def check_maximal_independent(g: Graph, s: Sequence[int]) -> None:
    check_independent(g, s)
    members = set(s)
    for v in g.vertices():
        if v not in members and not any(u in members for u in g.adjacency[v]):
            raise NotMaximal(f"vertex {v} could be added to the set")


@dataclass(frozen=True)
class MisResult:
    """An independent-set simplification: the set, its graph, the mapping.

    ``derived`` uses dense ids; its vertex ``i`` stands for ``mis[i]``.
    The mapping goes from the original graph onto ``derived`` and sends
    every vertex to itself or to an adjacent member, as
    :func:`mis_derived` validates; :func:`verify_mis_bounds` relies on it.
    Like every :class:`~qiso.quasi.VertexMapping`, it never stretches an
    edge.
    """

    mis: tuple[int, ...]
    derived: Graph
    mapping: VertexMapping
    # The mapping's guaranteed (stretch, additive); verify_mis_bounds shows why.
    guarantee: ClassVar[tuple[int, int]] = (3, 1)

    @property
    def compression_ratio(self) -> Fraction:
        """|derived| / |graph|: the share of vertices the set keeps."""
        return Fraction(len(self.mis), self.mapping.source.vertex_count)


def mis_derived(
    g: Graph, s: Sequence[int], image: Optional[Sequence[int]] = None
) -> MisResult:
    """Build the derived graph of a maximal independent set.

    Set members become the vertices; members at original distance 1 to 3
    become adjacent. ``image`` may override the canonical mapping with
    any per-vertex choice of adjacent set member (fixed on the set
    itself); it is validated, not trusted.

    The derived graph is built unchecked
    (:func:`qiso.graph._trusted_graph`). With the diagonal cleared, the
    members' "within 3" matrix is symmetric with no self-loop, and its
    non-zero entries in row-major order give each row's neighbours
    sorted. It is connected: send each vertex of a shortest path in
    ``g`` between two members to itself or an adjacent member, which a
    maximal set has; consecutive vertices then go to members within 3.

    The mapping is built unchecked too
    (:func:`qiso.quasi._trusted_mapping`), once ``image`` is validated:
    each entry is the index of a member, so in range; each member maps
    to itself, so it is onto; and the ends of an edge go to members
    within 1 of them, so within 3 of each other: the same member or
    adjacent ones, and no edge is stretched.
    """
    check_maximal_independent(g, s)
    mis = tuple(sorted(set(s)))
    index = {v: i for i, v in enumerate(mis)}
    near = distance_matrix(g).take(mis, axis=0).take(mis, axis=1) <= 3
    np.fill_diagonal(near, False)
    cols = np.nonzero(near)[1].tolist()
    ends = np.cumsum(np.count_nonzero(near, axis=1)).tolist()
    derived = _trusted_graph(tuple(tuple(cols[a:b]) for a, b in zip([0, *ends], ends)))

    if image is None:
        # Adjacency lists are sorted, so this is the smallest-id neighbor.
        image = [
            v if v in index else next(u for u in g.adjacency[v] if u in index)
            for v in g.vertices()
        ]
    if len(image) != g.vertex_count:
        raise InvalidMapping("image must assign every vertex")
    img = []
    for v, w in enumerate(image):
        if w not in index:
            raise InvalidMapping(f"f({v}) = {w} is not in the set")
        if v in index:
            if w != v:
                raise InvalidMapping(f"set member {v} must map to itself")
        elif w not in g.adjacency[v]:
            raise InvalidMapping(f"f({v}) = {w} is not adjacent to {v}")
        img.append(index[w])
    mapping = _trusted_mapping(g, derived, tuple(img))
    return MisResult(mis=mis, derived=derived, mapping=mapping)


def verify_mis_bounds(r: MisResult) -> CheckResult:
    """Check the derived-distance sandwich for every pair of vertices.

    For pairs with distinct images the derived distance must lie in
    ``[max(1, floor(d/3)), d]`` where ``d`` is the original distance:
    every derived edge spans an original distance of at most three, so a
    derived path of k edges spans at most 3k, and mapping a shortest
    original path vertex by vertex gives a derived walk of the same
    length. Pairs sharing an image coincide in the derived graph. The
    upper side is the mapping's invariant (it never stretches a
    distance), so the lower side is checked alone.
    """
    # d2 < d1 // 3 exactly when d1 - 3*d2 > 2. A vertex maps to itself or
    # to an adjacent member, so a pair sharing an image lies within 2 and
    # does not violate.
    return _first_violation(r.mapping, 3, 2)
