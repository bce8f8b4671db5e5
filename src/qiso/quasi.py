"""Quasi-isometry verification and the center-shift of a simplification.

A mapping between graphs is checked against the two defining properties:
the two-sided distance inequality with a multiplicative stretch and an
additive distortion, and the density of the image in the target. All
comparisons are exact (integer cross-multiplication or rationals); no
floating point enters any verdict.

When the source is a tree and the mapping is its quotient by connected
blocks (:func:`_tree_quotient`), every pair check and both eccentricity
profiles are maximum-weight paths in the source tree, found in linear
time without any matrix. Every other
mapping is checked by reductions over the graphs' cached distance
matrices (:func:`qiso.graph.distance_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConstants, NotSurjective, PreconditionViolated
from .graph import (
    CheckResult,
    Graph,
    _bfs,
    _extremes,
    _preorder,
    center,
    distance_matrix,
    set_distance,
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
    """Surjective map from the vertices of one graph onto another.

    ``image[v]`` is the target vertex of source vertex ``v``. Surjectivity
    is an invariant: simplifications never leave unused target vertices.
    """

    __slots__ = ("source", "target", "image")

    def __init__(self, source: Graph, target: Graph, image: Sequence[int]):
        img = tuple(image)
        if len(img) != source.vertex_count:
            raise NotSurjective(
                f"image has {len(img)} entries for {source.vertex_count} vertices"
            )
        for v in img:
            target.check_vertex(v)
        if len(set(img)) != target.vertex_count:
            raise NotSurjective("every target vertex must be hit")
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


def identity_mapping(g: Graph) -> VertexMapping:
    return VertexMapping(g, g, range(g.vertex_count))


def _check_q1_constants(stretch: int, additive: int) -> None:
    QuasiIsometryConstants(stretch, additive, 0)


def _image_distances(target: Graph, image: Sequence[int]) -> np.ndarray:
    """Target distance between the images of every source pair, as a matrix."""
    img = np.asarray(image, dtype=np.intp)
    return distance_matrix(target).take(img, axis=0).take(img, axis=1)


def _pair_check(bad: np.ndarray) -> CheckResult:
    """Verdict over all pairs ``x < y`` of a symmetric violation mask.

    The witness is the first violating pair in row-major order.
    """
    upper = np.triu(bad, 1)
    k = int(upper.argmax())
    if not upper.flat[k]:
        return CheckResult(True)
    x, y = divmod(k, bad.shape[1])
    return CheckResult(False, (x, y))


def _outside_band(
    d1: np.ndarray, d2: np.ndarray, stretch: int, additive: int
) -> np.ndarray:
    """Where ``d2`` leaves ``[d1/stretch - additive, stretch*d1 + additive]``.

    The lower side is cross-multiplied by ``stretch`` to stay in integers.
    """
    bad = d1 > stretch * (d2 + additive)
    bad |= d2 > stretch * d1 + additive
    return bad


def _tree_quotient(m: VertexMapping) -> bool:
    """Whether ``m`` is the quotient map of a tree by connected blocks.

    Holds when the source is a tree, every source edge lies inside one
    block or maps onto a target edge, and exactly
    ``target.vertex_count - 1 == target.edge_count`` edges cross blocks.
    A block of a tree induces a forest, so k blocks leave at least k - 1
    cross edges, and exactly k - 1 only when every block is connected;
    the cross edges then join distinct block pairs, which are all the
    target's edges. On such a mapping the x-y path meets each block in
    one run, so ``d(x, y)`` counts its intra- and cross-block edges and
    ``d'(f(x), f(y))`` its cross-block edges alone.
    """
    source, target, img = m.source, m.target, m.image
    k = target.vertex_count
    if not source.is_tree or target.edge_count != k - 1:
        return False
    # Each cross edge once, from the endpoint with the smaller image.
    cross = [
        (img[u], img[v])
        for u, nbrs in enumerate(source.adjacency)
        for v in nbrs
        if img[u] < img[v]
    ]
    return len(cross) == k - 1 and set(cross) == set(target.edges())


def _path_maxima(m: VertexMapping, *coeffs: tuple[int, int]) -> list[list[int]]:
    """Per ``(alpha, beta)``, each x's maximum over y of ``alpha*d1 + beta*d2``.

    ``d1 = d(x, y)`` and ``d2 = d'(f(x), f(y))``, as in :func:`_pair_max`.

    Only for a :func:`_tree_quotient` mapping, where the value is the
    weight of the x-y path with intra-block edges weighing ``alpha`` and
    cross-block edges ``alpha + beta``. Two best child branches per
    vertex give every path that turns there (y = x weighs 0); a second,
    rerooting pass adds the best path leaving through the parent.
    """
    order, parent = _preorder(m.source.adjacency)
    img = m.image
    # cut[v]: the edge from v to its parent crosses blocks (unused at the root).
    cut = [img[v] != img[p] for v, p in enumerate(parent)]
    out = []
    for alpha, beta in coeffs:
        w = [alpha + beta if c else alpha for c in cut]
        top1 = [0] * len(order)  # best path down from v, the empty one included
        top2 = [0] * len(order)  # best down path through another child of v
        for v in order[:0:-1]:
            p = parent[v]
            val = w[v] + top1[v]
            if val > top1[p]:
                top1[p], top2[p] = val, top1[p]
            elif val > top2[p]:
                top2[p] = val
        up = [0] * len(order)  # best path from v through its parent
        best = top1[:]
        for v in order[1:]:
            p = parent[v]
            val = w[v] + top1[v]
            up[v] = w[v] + max(up[p], top2[p] if val == top1[p] else top1[p])
            if up[v] > best[v]:
                best[v] = up[v]
        out.append(best)
    return out


def _pair_max(m: VertexMapping, *coeffs: tuple[int, int]) -> list[int]:
    """Per ``(alpha, beta)``, the maximum of ``alpha*d1 + beta*d2`` over all pairs.

    ``d1`` is the source distance and ``d2`` the target distance of the
    images; the pair ``x = y`` gives 0. Tree quotients take the
    path-weight DP, every other mapping the distance matrices.
    """
    if _tree_quotient(m):
        return [max(best) for best in _path_maxima(m, *coeffs)]
    d1 = distance_matrix(m.source)
    d2 = _image_distances(m.target, m.image)
    return [int((alpha * d1 + beta * d2).max()) for alpha, beta in coeffs]


def verify_q1(m: VertexMapping, stretch: int, additive: int) -> CheckResult:
    """Exhaustively check the two-sided distance inequality.

    For every source pair ``x, y`` the target distance must lie within
    ``[d(x,y)/stretch - additive, stretch*d(x,y) + additive]``. The first
    violating pair in row-major order is reported.

    On a tree quotient, x is the smallest vertex whose best partner
    breaks the band; violations are symmetric, so every partner of x is
    larger, and one search from x finds the smallest.
    """
    _check_q1_constants(stretch, additive)
    # Every distance is below n, so clamping to n is exact and int64 cannot wrap.
    n = m.source.vertex_count
    stretch, additive = min(stretch, n), min(additive, n)
    if not _tree_quotient(m):
        return _pair_check(
            _outside_band(
                distance_matrix(m.source),
                _image_distances(m.target, m.image),
                stretch,
                additive,
            )
        )
    lower, upper = _path_maxima(m, (1, -stretch), (-stretch, 1))
    bad_rows = (
        v for v in range(n) if lower[v] > stretch * additive or upper[v] > additive
    )
    x = next(bad_rows, None)
    if x is None:
        return CheckResult(True)
    d1 = np.array(_bfs(m.source.adjacency, (x,)))
    d2 = np.array(_bfs(m.target.adjacency, (m.image[x],)))
    bad = _outside_band(d1, d2[np.asarray(m.image, dtype=np.intp)], stretch, additive)
    return CheckResult(False, (x, int(bad.argmax())))


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
    """Density property of a mapping; trivially true at 0 when surjective."""
    return verify_q2_raw(m.target, m.image, density)


def minimal_additive_for_stretch(m: VertexMapping, stretch: int) -> int:
    """Smallest additive distortion making the distance inequality hold.

    Closed form from the pairwise maximum violations of both sides; the
    result is tight: the inequality passes at this value and fails one
    below (unless already zero).
    """
    _check_q1_constants(stretch, 0)
    # Every distance is below n, so clamping to n is exact and int64 cannot wrap.
    stretch = min(stretch, m.source.vertex_count)
    upper, diff = _pair_max(m, (-stretch, 1), (1, -stretch))
    lower = -((-diff) // stretch)  # ceil(diff / stretch)
    return max(0, upper, lower)


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

    Requires constants that already pass the distance inequality; the
    transfer to eccentricities is then a consequence worth re-verifying
    directly.
    """
    if not verify_q1(m, stretch, additive):
        raise PreconditionViolated(
            f"constants ({stretch}, {additive}) fail the distance inequality"
        )
    # Every eccentricity is below n, so clamping to n is exact.
    n = m.source.vertex_count
    if _tree_quotient(m):
        # The image is onto, so the farthest image from f(x) is f(x)'s eccentricity.
        ecc1, ecc2 = map(np.array, _path_maxima(m, (1, 0), (0, 1)))
    else:
        ecc1 = distance_matrix(m.source).max(axis=1)
        ecc2 = distance_matrix(m.target).max(axis=1)[np.asarray(m.image, dtype=np.intp)]
    return not _outside_band(ecc1, ecc2, min(stretch, n), min(additive, n)).any()


def shift_bound_two_sided(stretch: int, additive: int, radius: int) -> Fraction:
    """Center-shift bound for a mapping from a uniform-eccentricity source."""
    _check_q1_constants(stretch, additive)
    a = Fraction(stretch)
    b = Fraction(additive)
    return (a - 1 / a) * radius + a * b + b / a


def shift_bound_one_sided(stretch: int, additive: int, radius: int) -> Fraction:
    """Tighter bound when target distances never exceed source distances."""
    _check_q1_constants(stretch, additive)
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


def center_shift(
    m: VertexMapping, constants: Optional[QuasiIsometryConstants] = None
) -> CenterShiftReport:
    """Measure the center-shift of a mapping and evaluate its bounds.

    When ``constants`` is omitted the minimal constants are computed.
    """
    if constants is None:
        constants = minimal_constants(m)
    src_center = center(m.source)
    tgt_center, radius_t, _ = _extremes(m.target)
    pre = m.preimage(tgt_center)
    shift = set_distance(m.source, src_center, pre)
    return CenterShiftReport(
        shift=shift,
        source_center=src_center,
        target_center_preimage=pre,
        two_sided_bound=shift_bound_two_sided(
            constants.stretch, constants.additive, radius_t
        ),
        one_sided_bound=shift_bound_one_sided(
            constants.stretch, constants.additive, radius_t
        ),
        constants=constants,
    )
