"""Maximal independent sets and the distance-3 derived graph.

The derived graph keeps only the vertices of a maximal independent set
and joins two of them whenever their original distance is at most three.
The canonical mapping fixes set members and sends every other vertex to
its smallest-id neighbor inside the set. The derived graph of a maximal
independent set is simple and connected by construction, so its
adjacency, the members within 3 of each member, comes from a bounded
search (:func:`qiso.graph._within`) and is not validated again. The
ascending greedy set and its canonical mapping come straight from the
greedy sweep, whose construction proves them, so neither is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional, Sequence

from .errors import InvalidMapping, NotIndependent, NotMaximal
from .graph import CheckResult, Graph, _trusted_graph, _within
from .partition import _greedy_sweep
from .quasi import VertexMapping, _first_violation, _trusted_mapping


def greedy_mis(g: Graph, order: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """Greedy maximal independent set: a sweep's picks, sorted.

    The sweep (:func:`qiso.partition._greedy_sweep`) runs in ascending id
    by default, or in ``order``, any permutation of the vertices.
    """
    return tuple(sorted(_greedy_sweep(g, order)[0]))


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
        if v not in members and members.isdisjoint(g.adjacency[v]):
            raise NotMaximal(f"vertex {v} could be added to the set")


@dataclass(frozen=True)
class MisResult:
    """An independent-set simplification: the set, its graph, the mapping.

    ``derived`` uses dense ids; its vertex ``i`` stands for ``mis[i]``.
    The mapping goes from the original graph onto ``derived`` and sends
    every vertex to itself or to an adjacent member, as
    :func:`mis_derived` validates, or proves for the greedy set. Like every
    :class:`~qiso.quasi.VertexMapping`, it never stretches an edge.

    Its guarantee (3, 1) is a theorem: x and y lie within 1 of f(x) and
    f(y), and a derived edge spans at most 3, so ``d <= 3*d' + 2``, the
    lower side of :func:`verify_mis_bounds` (``d' >= d // 3``) and of the
    distance inequality at (3, 1); the eccentricity transfer follows.
    """

    mis: tuple[int, ...]
    derived: Graph
    mapping: VertexMapping
    guarantee: ClassVar[tuple[int, int]] = (3, 1)

    @property
    def compression_ratio(self) -> Fraction:
        """|derived| / |graph|: the share of vertices the set keeps."""
        return Fraction(len(self.mis), self.mapping.source.vertex_count)


def mis_derived(
    g: Graph, s: Optional[Sequence[int]] = None, image: Optional[Sequence[int]] = None
) -> MisResult:
    """Build the derived graph of a maximal independent set.

    Set members become the vertices; members at original distance 1 to 3
    become adjacent. ``image`` may override the canonical mapping with
    any per-vertex choice of adjacent set member (fixed on the set
    itself); it is validated, not trusted, and so is ``s``.

    With ``s`` omitted, the set is the ascending greedy sweep's
    (:func:`greedy_mis`), built from that sweep and not checked: its
    picks come in ascending id, no pick is adjacent to an earlier one,
    so they are independent, and every other vertex has an adjacent pick,
    so they are maximal. A non-pick's owner is the first pick adjacent
    to it, its smallest-id adjacent member, which is the canonical
    image, already as an index into the sorted set. ``image`` is read
    only with ``s``.

    The derived graph is built unchecked
    (:func:`qiso.graph._trusted_graph`). Each member's partners, the
    other members within 3, come ascending and never include the member
    itself, and "within 3" is symmetric, so every edge is listed from
    both ends. It is connected: send each vertex of a shortest path in
    ``g`` between two members to itself or an adjacent member, which a
    maximal set has; consecutive vertices then go to members within 3.

    The mapping is built unchecked too
    (:func:`qiso.quasi._trusted_mapping`), once ``image`` is validated:
    each entry is the index of a member, so in range; each member maps
    to itself, so it is onto; and the ends of an edge go to members
    within 1 of them, so within 3 of each other: the same member or
    adjacent ones, and no edge is stretched.
    """
    if s is None:
        picks, owner = _greedy_sweep(g, None)
        derived = _trusted_graph(_within(g, picks, 3))
        mapping = _trusted_mapping(g, derived, tuple(owner))
        return MisResult(mis=tuple(picks), derived=derived, mapping=mapping)
    check_maximal_independent(g, s)
    mis = tuple(sorted(set(s)))
    index = {v: i for i, v in enumerate(mis)}
    derived = _trusted_graph(_within(g, mis, 3))

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
    """Check ``max(1, d // 3) <= d' <= d`` exhaustively, for every pair.

    ``d`` is the original distance of a pair with distinct images, ``d'``
    the derived distance of the images. The upper side is the mapping's
    invariant (it never stretches a distance), so the lower side is
    checked alone; it is a theorem (:class:`MisResult`).
    """
    # d2 < d1 // 3 exactly when d1 - 3*d2 > 2. A vertex maps to itself or
    # to an adjacent member, so a pair sharing an image lies within 2 and
    # does not violate.
    return _first_violation(r.mapping, 3, 2)
