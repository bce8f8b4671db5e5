"""Independent brute-force oracles used by the test suites.

Everything here is deliberately naive: alternate routes to answers the
main library computes more directly, kept simple enough to trust.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import chain

from qiso.errors import FormatError, TooLarge
from qiso.graph import Graph, _bfs, bfs_distances, center
from qiso.partition import Partition, build_partition_graph


def floyd_warshall(g: Graph) -> list[list[int]]:
    """All-pairs distances by the classic triple loop. Small graphs only."""
    n = g.vertex_count
    inf = n + 1
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = 1
        dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik >= inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def longest_simple_cycle(g: Graph, max_vertices: int = 12) -> int:
    """Length of the longest simple cycle, 0 when acyclic.

    Exhaustive DFS over simple paths, exponential in the worst case,
    hence the size guard.
    """
    if g.vertex_count > max_vertices:
        raise TooLarge(
            f"cycle enumeration guarded at {max_vertices} vertices, got {g.vertex_count}"
        )
    adj = g.adjacency
    best = 0

    def extend(start: int, v: int, on_path: set[int], length: int) -> None:
        nonlocal best
        for u in adj[v]:
            if u == start:
                if length >= 3 and length > best:
                    best = length
            elif u > start and u not in on_path:
                on_path.add(u)
                extend(start, u, on_path, length + 1)
                on_path.discard(u)

    for s in g.vertices():
        extend(s, s, {s}, 1)
    return best


def is_chordal(g: Graph) -> bool:
    """Chordality via repeated simplicial elimination.

    A graph is chordal exactly when deleting simplicial vertices (those
    whose neighborhood is a clique) can empty it; induced subgraphs of a
    chordal graph stay chordal, so greedy removal is safe.
    """
    alive: set[int] = set(g.vertices())
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices()}
    while alive:
        found = -1
        for v in sorted(alive):
            around = nbrs[v] & alive
            if all(b in nbrs[a] for a in around for b in around if a < b):
                found = v
                break
        if found < 0:
            return False
        alive.discard(found)
    return True


def induced_diameter(g: Graph, members) -> int:
    """Diameter of the subgraph induced by a connected vertex set.

    Every member is searched from, one search each: the reference that
    ``partition.sharpness_report``'s one sweep over all blocks is tested
    against.
    """
    index = {v: i for i, v in enumerate(sorted(set(members)))}
    adj = [[index[u] for u in g.adjacency[v] if u in index] for v in index]
    return max((max(_bfs(adj, (s,))) for s in range(len(adj))), default=0)


def q1_witness(m, stretch: int, additive: int):
    """First pair (row-major, ``x < y``) breaking the distance inequality, or None.

    The per-pair loop in Python ints that ``verify_q1`` vectorizes.
    """
    d1 = floyd_warshall(m.source)
    d2 = floyd_warshall(m.target)
    img = m.image
    n = m.source.vertex_count
    for x in range(n):
        for y in range(x + 1, n):
            a, b = d1[x][y], d2[img[x]][img[y]]
            if a - stretch * additive > stretch * b or b > stretch * a + additive:
                return (x, y)
    return None


def minimal_additive(m, stretch: int) -> int:
    """Tight additive for a stretch, by a per-pair loop in Python ints."""
    d1 = floyd_warshall(m.source)
    d2 = floyd_warshall(m.target)
    img = m.image
    best = 0
    for x in range(m.source.vertex_count):
        for y in range(m.source.vertex_count):
            a, b = d1[x][y], d2[img[x]][img[y]]
            best = max(best, b - stretch * a, -((stretch * b - a) // stretch))
    return best


def ecc_transfer_holds(m, stretch: int, additive: int) -> bool:
    """The eccentricity inequality, per vertex in Python ints."""
    ecc1 = [max(row) for row in floyd_warshall(m.source)]
    ecc2 = [max(row) for row in floyd_warshall(m.target)]
    for e, f in zip(ecc1, m.image):
        if e - stretch * additive > stretch * ecc2[f] or ecc2[f] > stretch * e + additive:
            return False
    return True


def row_maxima(m, stretch: int) -> tuple[int, ...]:
    """Each x's maximum over all y of ``d(x, y) - stretch*d'(f(x), f(y))``.

    The per-pair loop in Python ints that ``quasi._row_maxima`` reduces.
    """
    d1 = floyd_warshall(m.source)
    d2 = floyd_warshall(m.target)
    img = m.image
    return tuple(
        max(d1[x][y] - stretch * d2[img[x]][img[y]] for y in range(len(img)))
        for x in range(len(img))
    )


def mis_bounds_witness(r):
    """First pair (row-major, ``x < y``) with distinct images whose derived
    distance leaves ``[max(1, d // 3), d]``, or None."""
    d1 = floyd_warshall(r.mapping.source)
    d2 = floyd_warshall(r.derived)
    img = r.mapping.image
    n = r.mapping.source.vertex_count
    for x in range(n):
        for y in range(x + 1, n):
            if img[x] != img[y] and not (
                max(1, d1[x][y] // 3) <= d2[img[x]][img[y]] <= d1[x][y]
            ):
                return (x, y)
    return None


def first_stretched_edge(source: Graph, target: Graph, image):
    """First source edge (row-major, ``u < v``) whose images lie over 1 apart, or None.

    Takes the raw image, as ``VertexMapping`` refuses such a map, and
    finds the edges as the pairs at distance 1.
    """
    d1, d2 = floyd_warshall(source), floyd_warshall(target)
    n = source.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            if d1[u][v] == 1 and d2[image[u]][image[v]] > 1:
                return (u, v)
    return None


def collapse_modified_blocks(g: Graph, sweep) -> list[list[int]]:
    """Blocks of the two-phase collapse, rescanning the sweep for every seed.

    The quadratic restart scan that ``collapse_modified`` replaced by one
    forward pass; its blocks in their order of creation.
    """
    assigned = [False] * g.vertex_count
    blocks: list[list[int]] = []
    block_of = {}

    def completely_free(v: int) -> bool:
        return not assigned[v] and not any(assigned[u] for u in g.adjacency[v])

    while True:
        seed = next((v for v in sweep if completely_free(v)), -1)
        if seed < 0:
            break
        blk = [seed] + [u for u in g.adjacency[seed] if not assigned[u]]
        for v in blk:
            assigned[v] = True
            block_of[v] = len(blocks)
        blocks.append(blk)
    for w in sweep:
        if w not in block_of:
            host = min(u for u in g.adjacency[w] if assigned[u])
            blocks[block_of[host]].append(w)
    return blocks


def first_disconnected_block(g: Graph, blocks) -> int | None:
    """Index of the first block whose induced subgraph is disconnected, or None.

    A separate search per block over plain sets, grown from the block's
    smallest member along edges that stay inside the block.
    """
    for i, blk in enumerate(blocks):
        members = set(blk)
        start = min(members)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u in members and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != members:
            return i
    return None


def outward_blocks(t: Graph, root: int) -> list[tuple[int, ...]]:
    """Outward contraction's blocks by level parity, in ascending head order.

    Every even-level vertex heads a block holding it and its strictly
    deeper neighbours, with levels from one search from ``root``.
    """
    lev = bfs_distances(t, root)
    return [
        tuple(sorted([v] + [u for u in t.adjacency[v] if lev[u] > lev[v]]))
        for v in t.vertices()
        if lev[v] % 2 == 0
    ]


def first_center_shifting_root(t: Graph, blocks) -> int | None:
    """Smallest root whose partition ``blocks(t, root)`` misses the center.

    The per-root loop that ``qiso.contraction.first_center_shifting_root``
    replaced: every root's quotient graph and mapping are built, and the
    source center is intersected with the preimage of the quotient's.
    """
    src_center = set(center(t))
    for root in t.vertices():
        m = build_partition_graph(blocks(t, root)).mapping
        if src_center.isdisjoint(m.preimage(center(m.target))):
            return root
    return None


def rule_blocks(w):
    """Per-root blocks of the rule ``w``, as ``blocks(t, root)``.

    Levels come from one search from ``root``; walking them outwards,
    a vertex other than the root heads its own block when ``w`` marks
    it and otherwise joins the block of its neighbour one level up.
    """

    def blocks(t: Graph, root: int) -> Partition:
        lev = bfs_distances(t, root)
        head = list(t.vertices())
        for v in sorted(t.vertices(), key=lev.__getitem__):
            if v != root and not w[v]:
                up = next(u for u in t.adjacency[v] if lev[u] == lev[v] - 1)
                head[v] = head[up]
        members = {}
        for v, h in enumerate(head):
            members.setdefault(h, []).append(v)
        return Partition(t, list(members.values()))

    return blocks


def colour_rules(t: Graph, seed: int):
    """A random head rule for each colour of a tree's 2-colouring.

    Returns ``rule_of``, which maps a colour's outward weights (1 on its
    vertices, 0 elsewhere) to that colour's rule, and ``blocks(t, root)``,
    the blocks of the rule of ``root``'s colour.
    """
    rng = random.Random(seed)
    colour = [d % 2 for d in bfs_distances(t, 0)]
    rule = [[int(rng.random() < 0.5) for _ in t.vertices()] for _ in (0, 1)]
    rule_of = {tuple(int(c == p) for c in colour): rule[p] for p in (0, 1)}

    def blocks(t: Graph, root: int) -> Partition:
        return rule_blocks(rule[colour[root]])(t, root)

    return rule_of, blocks


def keeps_center(order, parent, block_of, src_center) -> bool:
    """Whether a source-center vertex lies in a center block of the quotient.

    The per-root check that the rerooting passes of
    ``qiso.contraction`` replaced. ``order`` lists a tree's vertices
    parents first and ``block_of`` cuts it into connected blocks labelled
    below ``len(order)``. The quotient is then a tree rooted at the
    root's block, and a block's top vertex (the one whose parent lies in
    another block) comes after the tops of all blocks above it. Walking
    the order backwards therefore finishes each block's height before
    its top is reached, and the center is the middle of the longest
    quotient path, found from that path's peak.
    """
    n = len(order)
    best = [0] * n  # height of each block's quotient subtree
    second = [0] * n  # height through its second-best child block
    down = [-1] * n  # the child block that attains ``best``
    peak = block_of[order[0]]
    for v in reversed(order):
        p = parent[v]
        if p < 0:
            continue
        b, pb = block_of[v], block_of[p]
        if b == pb:
            continue
        h = best[b] + 1
        if h > best[pb]:
            second[pb] = best[pb]
            best[pb] = h
            down[pb] = b
        elif h > second[pb]:
            second[pb] = h
        if best[pb] + second[pb] > best[peak] + second[peak]:
            peak = pb
    mid = peak
    for _ in range((best[peak] - second[peak]) // 2):
        mid = down[mid]
    middle = {mid}
    if (best[peak] - second[peak]) % 2:
        middle.add(down[mid])
    return any(block_of[c] in middle for c in src_center)


# The edge-list, partition, mapping and weight readers and the writers as
# they were before qiso's whole-file passes: every file is split into
# lines in Python and every line written by its own f-string. The new
# code must accept, reject and write exactly as these do.


def _content_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from None
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            out.append((lineno, fields))
    return out


def _digits(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _ints(fields, lineno, expect=None):
    if expect is not None and len(fields) != expect:
        raise FormatError(f"line {lineno}: expected {expect} fields, got {len(fields)}")
    for f in fields:
        if not _digits(f):
            raise FormatError(f"line {lineno}: invalid literal for int() with base 10: {f!r}")
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def read_edge_list(path) -> Graph:
    lines = _content_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty file")
    lineno, header = lines[0]
    n, m = _ints(header, lineno, 2)
    if n > m + 1:
        raise FormatError(f"{path}: {m} edges cannot connect {n} vertices")
    body = lines[1:]
    if len(body) != m:
        raise FormatError(f"{path}: header says {m} edges, found {len(body)}")
    rows = [fields for _, fields in body]
    tokens = list(chain.from_iterable(rows))
    try:
        ends = list(map(int, tokens)) if _digits("".join(tokens)) else []
    except ValueError:
        ends = []
    us, vs = ends[0::2], ends[1::2]
    if set(map(len, rows)) - {2} or len(ends) != 2 * m or not all(map(operator.lt, us, vs)):
        for lineno, fields in body:
            u, v = _ints(fields, lineno, 2)
            if not u < v:
                raise FormatError(f"line {lineno}: edges must satisfy u < v, got {u} {v}")
    return Graph(n, zip(us, vs))


def read_partition(path, g: Graph) -> Partition:
    blocks = []
    for lineno, fields in _content_lines(path):
        members = _ints(fields, lineno)
        if any(a >= b for a, b in zip(members, members[1:])):
            raise FormatError(f"line {lineno}: ids must be strictly increasing")
        blocks.append(members)
    return Partition(g, blocks)


def read_mapping(path, g: Graph) -> list[int]:
    image = {}
    for lineno, fields in _content_lines(path):
        v, w = _ints(fields, lineno, 2)
        if not (0 <= v < g.vertex_count and 0 <= w < g.vertex_count):
            raise FormatError(f"line {lineno}: vertex out of range")
        if v in image:
            raise FormatError(f"line {lineno}: duplicate image for vertex {v}")
        image[v] = w
    missing = g.vertex_count - len(image)
    if missing:
        raise FormatError(f"{path}: {missing} vertices have no image")
    return [image[v] for v in range(g.vertex_count)]


def read_weights(path, g: Graph) -> list[Fraction]:
    weights = {}
    for lineno, fields in _content_lines(path):
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'vertex weight'")
        (v,) = _ints(fields[:1], lineno)
        if not (0 <= v < g.vertex_count):
            raise FormatError(f"line {lineno}: vertex {v} out of range")
        if v in weights:
            raise FormatError(f"line {lineno}: duplicate weight for vertex {v}")
        token = fields[1]
        if not all(map(_digits, token.split("/", 1))):
            raise FormatError(f"line {lineno}: weight must be an integer or p/q, got {token!r}")
        try:
            weights[v] = Fraction(token)
        except (ZeroDivisionError, ValueError):
            raise FormatError(f"line {lineno}: weight {token!r} is not a rational") from None
    missing = g.vertex_count - len(weights)
    if missing:
        raise FormatError(f"{path}: {missing} vertices have no weight")
    return [weights[v] for v in range(g.vertex_count)]


def edge_list_text(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def mapping_text(image) -> str:
    lines = [f"{v} {w}" for v, w in enumerate(image)]
    return "\n".join(lines) + "\n"
