"""Quasi-isometry verification and the center-shift of a simplification.

A mapping between graphs is checked against the two defining properties:
the two-sided distance inequality with a multiplicative stretch and an
additive distortion, and the density of the image in the target. All
comparisons are exact (integer cross-multiplication or rationals); no
floating point enters any verdict.

A :class:`VertexMapping` is onto and never stretches an edge, so target
distances never exceed source distances: every upper side, of the
distance inequality, of the eccentricity transfer and of the
independent-set sandwich, holds by construction, and each claim checks
its lower side alone. Every pair claim bounds one form, the excess
``d1 - stretch*d2`` with ``d1`` the source distance of a pair and ``d2``
the target distance of its images. :func:`_row_maxima` gives each vertex
its maximum excess over all partners, and :func:`_first_violation` turns
row maxima into a verdict with the first witness pair. Nothing is kept
on a mapping: at a quotient's or an independent-set mapping's own
guarantee the claims are theorems (``qiso.cli`` takes those verdicts
from the proofs), so a command asks a mapping for one row set, at
stretch 1, for its minimal constants. :func:`_row_maxima` chooses
between two kernels in one pass over a source tree's parent edges: on
the tree's quotient by connected blocks each row is a heaviest path
(:func:`qiso.graph._heaviest_paths`), in linear time and without any
matrix. Every other mapping groups each x's partners by their image
block (:func:`_block_maxima`), so no n x n matrix is formed beside the
source's own cached one (:func:`qiso.graph.distance_matrix`).
Eccentricities are each graph's own (:func:`qiso.graph._eccentricities`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvalidConstants, InvalidMapping, NotSurjective, PreconditionViolated
from .graph import (
    CheckResult,
    Graph,
    _bfs,
    _eccentricities,
    _extremes,
    _heaviest_paths,
    _tree_preorder,
    center,
    distance_matrix,
)


@dataclass(frozen=True)
class QuasiIsometryConstants:
    """The constant triple of a quasi-isometry.

    ``stretch`` is the multiplicative factor (at least 1), ``additive``
    the additive distortion, ``density`` how far a target vertex may sit
    from the image. Surjective mappings always admit density 0.
    """

    stretch: int
    additive: int
    density: int = 0

    def __post_init__(self) -> None:
        if self.stretch < 1:
            raise InvalidConstants(f"stretch must be >= 1, got {self.stretch}")
        if self.additive < 0:
            raise InvalidConstants(f"additive must be >= 0, got {self.additive}")
        if self.density < 0:
            raise InvalidConstants(f"density must be >= 0, got {self.density}")


class VertexMapping:
    """Surjective vertex map between graphs that never stretches an edge.

    ``image[v]`` is the target vertex of source vertex ``v``. Two
    invariants hold: simplifications never leave unused target vertices,
    and the ends of every source edge map to one vertex or to adjacent
    ones, so ``d'(f(x), f(y)) <= d(x, y)`` for every pair (map a shortest
    path edge by edge). The constructor checks both and names the first
    stretched edge ``(u, v)``, ``u < v``, in row-major order; the
    quotient and the derived graph, which prove both, skip the checks
    (:func:`_trusted_mapping`). A mapping holds its two graphs and the
    image, nothing more: its rows are computed on each request.
    """

    __slots__ = ("source", "target", "image")

    def __init__(self, source: Graph, target: Graph, image: Sequence[int]):
        img = tuple(image)
        if len(img) != source.vertex_count:
            raise NotSurjective(
                f"image has {len(img)} entries for {source.vertex_count} vertices"
            )
        if not 0 <= min(img) <= max(img) < target.vertex_count:
            for v in img:  # raises at the first entry out of range
                target.check_vertex(v)
        if len(set(img)) != target.vertex_count:
            raise NotSurjective("every target vertex must be hit")
        adj = target.adjacency
        for u, nbrs in enumerate(source.adjacency):
            a = img[u]
            for v in nbrs:
                b = img[v]
                if u < v and a != b and b not in adj[a]:
                    raise InvalidMapping(
                        f"edge ({u}, {v}) is stretched: {a} and {b} are not adjacent"
                    )
        self.source = source
        self.target = target
        self.image = img

    def preimage(self, target_vertices: Sequence[int]) -> tuple[int, ...]:
        """Source vertices mapping into the given target set, ascending."""
        wanted = set(target_vertices)
        for v in wanted:
            self.target.check_vertex(v)
        return tuple(x for x, y in enumerate(self.image) if y in wanted)

    def __repr__(self) -> str:
        return (
            f"VertexMapping({self.source.vertex_count} -> "
            f"{self.target.vertex_count} vertices)"
        )


def _trusted_mapping(source: Graph, target: Graph, image: tuple[int, ...]) -> VertexMapping:
    """A :class:`VertexMapping` that is valid by construction, unchecked.

    ``image`` must be what validation would have accepted: a tuple of
    Python ints, one per source vertex, in range, onto the target, and
    mapping the ends of every source edge to one vertex or to adjacent
    ones. The caller owns that proof; nothing here checks it.
    """
    m = VertexMapping.__new__(VertexMapping)
    m.source, m.target, m.image = source, target, image
    return m


def identity_mapping(g: Graph) -> VertexMapping:
    return VertexMapping(g, g, range(g.vertex_count))


def _block_maxima(m: VertexMapping, stretch: int) -> list[int]:
    """:func:`_row_maxima` off tree quotients, from k x n block tables.

    The image is onto, so x's maximum is that over blocks b of
    ``E - stretch*d'(f(x), b)``, E being x's distance to b's farthest
    member: ``far[i, x]`` with the blocks b_i largest first. Slot j
    gathers the j-th member of each block with more than j, a prefix of
    that order. The k x n sum takes the smallest signed dtype that holds
    ``(1 + stretch) * n``, a bound on every value.
    """
    import numpy as np

    img = np.asarray(m.image, dtype=np.intp)
    sizes = np.bincount(img)
    blocks = np.argsort(-sizes)
    members = np.argsort(img)  # source vertices, block by block
    first = (np.cumsum(sizes) - sizes)[blocks]
    sizes = sizes[blocks]
    dist = distance_matrix(m.source)  # symmetric: member rows are member columns
    far = dist.take(members[first], axis=0)
    for j in range(1, sizes[0]):
        c = np.count_nonzero(sizes > j)
        rows = dist.take(members[first[:c] + j], axis=0)
        np.maximum(far[:c], rows, out=far[:c])
    d2 = distance_matrix(m.target).take(blocks, axis=0).take(img, axis=1)
    dtype = np.min_scalar_type(-1 - m.source.vertex_count * (1 + stretch))
    values = np.multiply(-stretch, d2, dtype=dtype)
    values += far
    return values.max(axis=0).tolist()


def _row_maxima(m: VertexMapping, stretch: int) -> list[int]:
    """Each x's maximum excess over y, ``d1 - stretch*d2``, for ``stretch >= 1``.

    ``d1 = d(x, y)`` and ``d2 = d'(f(x), f(y))``; y = x gives 0. Every
    pair claim bounds this one form: no mapping stretches a distance
    (:class:`VertexMapping`), so each upper side holds and only the lower
    side ``d1 - stretch*d2 <= limit`` is checked.

    Between trees, one pass marks the source's parent edges that cross
    blocks. The k blocks induce a forest with c >= k components, so c - 1
    edges cross, and k - 1 only when every block is connected. Then no
    two cross edges join one block pair (contracting connected blocks of
    a tree leaves a tree) and each maps onto a target edge, so k - 1 =
    ``target.edge_count`` crossings make the target the quotient. A
    connected block holds the tree path between any two of its members,
    so the x-y path meets each block in one run, and the images of its
    cross edges, no block repeated, are the target path: x's row is its
    heaviest path with cross edges weighing ``1 - stretch`` and the
    others 1. Any other mapping's rows come from :func:`_block_maxima`.
    """
    source, target, img = m.source, m.target, m.image
    if source.is_tree and target.is_tree:
        parent = _tree_preorder(source)[1]
        # w[v] weighs v's edge to its parent; the root, 0, has none to count.
        w = [1 - stretch if img[v] != img[p] else 1 for v, p in enumerate(parent)]
        w[0] = 1
        if w.count(1 - stretch) == target.edge_count:
            return _heaviest_paths(source, w)
    return _block_maxima(m, stretch)


def _first_violation(m: VertexMapping, stretch: int, limit: int) -> CheckResult:
    """Whether ``d1 - stretch*d2 <= limit`` for every pair.

    ``limit >= 0``, so no pair x = y violates. The witness is the first
    violating pair ``x < y`` in row-major order: x is the smallest vertex
    whose row maximum breaks the limit, and as violations are symmetric
    every partner of x is larger, so one search from x and one from f(x)
    find the smallest.
    """
    row = _row_maxima(m, stretch)
    x = next((v for v, best in enumerate(row) if best > limit), None)
    if x is None:
        return CheckResult(True)
    d1 = _bfs(m.source.adjacency, (x,))
    d2 = _bfs(m.target.adjacency, (m.image[x],))
    y = next(y for y, fy in enumerate(m.image) if d1[y] - stretch * d2[fy] > limit)
    return CheckResult(False, (x, y))


def _clamped(m: VertexMapping, stretch: int, additive: int) -> tuple[int, int]:
    """The constants, validated, with each clamped to the source's size n.

    Every distance and eccentricity is below n, so clamping both to n
    changes no verdict and keeps ``stretch`` and ``stretch*additive``
    within the kernels' dtype bounds.
    """
    QuasiIsometryConstants(stretch, additive)  # validates both
    n = m.source.vertex_count
    return min(stretch, n), min(additive, n)


def verify_q1(m: VertexMapping, stretch: int, additive: int) -> CheckResult:
    """Exhaustively check the two-sided distance inequality.

    For every source pair ``x, y`` the target distance must lie within
    ``[d(x,y)/stretch - additive, stretch*d(x,y) + additive]``. The upper
    side holds for every mapping, which never stretches a distance, so
    the lower side is checked alone. The first violating pair in
    row-major order is reported.
    """
    stretch, additive = _clamped(m, stretch, additive)
    # d2 >= d1/stretch - additive, cross-multiplied to stay in integers.
    return _first_violation(m, stretch, stretch * additive)


def verify_q2_raw(target: Graph, images: Sequence[int], density: int) -> bool:
    """Density check for a raw image set (surjectivity not assumed).

    True when every target vertex is within ``density`` of some image
    vertex. Exposed separately so that non-surjective maps can be probed.
    """
    if density < 0:
        raise InvalidConstants(f"density must be >= 0, got {density}")
    hit = set(images)
    for v in hit:
        target.check_vertex(v)
    return all(0 <= d <= density for d in _bfs(target.adjacency, hit))


def verify_q2(m: VertexMapping, density: int) -> bool:
    """Density property of a mapping: true at every density >= 0.

    The proof is the constructor's: a :class:`VertexMapping` hits every
    target vertex, so each one is an image, at distance 0 from one. Only
    the density is checked; :func:`verify_q2_raw` probes raw image sets.
    """
    QuasiIsometryConstants(1, 0, density)  # validates the density
    return True


def minimal_additive_for_stretch(m: VertexMapping, stretch: int) -> int:
    """Smallest additive distortion making the distance inequality hold.

    Closed form from the pairwise maximum violation of the lower side
    (the upper side holds at additive 0, as no mapping stretches a
    distance); the result is tight: the inequality passes at this value
    and fails one below (unless already zero).
    """
    stretch = _clamped(m, stretch, 0)[0]
    worst = max(_row_maxima(m, stretch))  # at least 0, from y = x
    return -(-worst // stretch)  # ceil(worst / stretch)


def minimal_constants(m: VertexMapping) -> QuasiIsometryConstants:
    """Lexicographically minimal constants, stretch first, then additive.

    Every stretch admits a large enough additive, so the least feasible
    stretch is 1 and the minimum is reached at stretch 1 with its tight
    additive. Use :func:`minimal_additive_for_stretch` to explore the
    rest of the frontier.
    """
    # A VertexMapping is surjective, so every target vertex is an image: density 0.
    return QuasiIsometryConstants(1, minimal_additive_for_stretch(m, 1), 0)


def verify_ecc_transfer(m: VertexMapping, stretch: int, additive: int) -> bool:
    """Check that eccentricities obey the same two-sided inequality.

    Requires constants that pass the distance inequality
    (:func:`verify_q1`), from which the lower side follows (take y
    farthest from x); it is compared directly, per vertex. The upper side
    holds for every mapping: each target vertex is some f(y), as the
    image is onto, and ``d'(f(x), f(y)) <= d(x, y)``.
    """
    if not verify_q1(m, stretch, additive):
        raise PreconditionViolated(
            f"constants ({stretch}, {additive}) fail the distance inequality"
        )
    stretch, additive = _clamped(m, stretch, additive)
    e1, e2 = _eccentricities(m.source), _eccentricities(m.target)
    return all(e1[x] - stretch * e2[y] <= stretch * additive for x, y in enumerate(m.image))


def shift_bound_two_sided(stretch: int, additive: int, radius: int) -> Fraction:
    """Center-shift bound for a mapping from a uniform-eccentricity source."""
    QuasiIsometryConstants(stretch, additive)  # validates both
    a = Fraction(stretch)
    b = Fraction(additive)
    return (a - 1 / a) * radius + a * b + b / a


def shift_bound_one_sided(stretch: int, additive: int, radius: int) -> Fraction:
    """Tighter bound when target distances never exceed source distances."""
    QuasiIsometryConstants(stretch, additive)  # validates both
    return Fraction((stretch - 1) * radius + stretch * additive)


@dataclass(frozen=True)
class CenterShiftReport:
    """How far a simplification displaces the center.

    ``shift`` is the source-graph distance between the source center and
    the preimage of the target center; it is zero exactly when the two
    sets meet. The two bound fields evaluate the closed-form bounds at
    the attached constants and the target radius.
    """

    shift: int
    source_center: tuple[int, ...]
    target_center_preimage: tuple[int, ...]
    two_sided_bound: Fraction
    one_sided_bound: Fraction
    constants: QuasiIsometryConstants

    def within(self) -> dict[str, bool]:
        """Whether the shift is at most each bound, keyed by side.

        As ``(1 - 1/A)·r + B/A >= 0``, the one-sided bound is never above
        the two-sided one, so where it applies its verdict decides both.
        """
        bounds = {"two-sided": self.two_sided_bound, "one-sided": self.one_sided_bound}
        return {side: self.shift <= bound for side, bound in bounds.items()}


def center_shift(
    m: VertexMapping, constants: Optional[QuasiIsometryConstants] = None
) -> CenterShiftReport:
    """Measure the center-shift of a mapping and evaluate its bounds.

    When ``constants`` is omitted the minimal constants are computed.
    Both centers are computed here from graphs the mapping holds, and the
    image is onto, so both vertex sets are non-empty and in range by
    construction: one search from the source center measures the shift
    with no vertex checked again.
    """
    if constants is None:
        constants = minimal_constants(m)
    src_center = center(m.source)
    tgt_center, radius_t, _ = _extremes(m.target)
    wanted = set(tgt_center)
    pre = tuple(x for x, y in enumerate(m.image) if y in wanted)
    dist = _bfs(m.source.adjacency, src_center)
    bound = (constants.stretch, constants.additive, radius_t)
    return CenterShiftReport(
        shift=min(dist[x] for x in pre),
        source_center=src_center,
        target_center_preimage=pre,
        two_sided_bound=shift_bound_two_sided(*bound),
        one_sided_bound=shift_bound_one_sided(*bound),
        constants=constants,
    )
