"""Checks of qiso's outputs made from outside the program.

Everything here reads the files a command wrote and recomputes what it
can independently: tree centers by leaf removal, tree medians and
weighted medians by the subtree-weight rule, and the paper's invariants
on each report. None of it imports ``qiso``.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


class CheckError(Exception):
    """An output broke a check; the message says which."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_edges(path: Path) -> tuple[int, list[list[int]]]:
    """A valid edge list as ``(n, adjacency)``."""
    lines = path.read_text().split("\n")
    n = int(lines[0].split()[0])
    adj: list[list[int]] = [[] for _ in range(n)]
    for line in lines[1:]:
        if line:
            u, v = map(int, line.split())
            adj[u].append(v)
            adj[v].append(u)
    return n, adj


def read_partition(path: Path) -> list[list[int]]:
    return [list(map(int, line.split())) for line in path.read_text().splitlines() if line]


def read_weights(path: Path, n: int) -> list[Fraction]:
    weights = [Fraction(0)] * n
    for line in path.read_text().splitlines():
        v, w = line.split()
        weights[int(v)] = Fraction(w)
    return weights


def load_report(path: Path) -> dict:
    expect(path.is_file(), f"missing report {path.name}")
    return json.loads(path.read_text())


def passing_report(path: Path) -> dict:
    """Load a report and require every check in it to pass."""
    rep = load_report(path)
    failed = [name for name, entry in rep["checks"].items() if not entry["ok"]]
    expect(not failed, f"{path.name}: checks failed: {failed}")
    return rep


def partition_outputs(prefix: Path, n: int, max_sharpness: int) -> dict:
    """Check a partition simplification's three files; return its report."""
    rep = passing_report(prefix.with_name(prefix.name + ".report.json"))
    expect(rep["sharpness"] <= max_sharpness,
           f"sharpness {rep['sharpness']} above {max_sharpness}")
    blocks = read_partition(prefix.with_name(prefix.name + ".partition.txt"))
    members = sorted(v for blk in blocks for v in blk)
    expect(members == list(range(n)), "partition does not cover every vertex once")
    quotient_n, _ = read_edges(prefix.with_name(prefix.name + ".quotient.el"))
    expect(quotient_n == len(blocks), "quotient size differs from the block count")
    return rep


def mapping_outputs(prefix: Path, n: int) -> None:
    """Check an independent-set simplification's mapping against its quotient."""
    lines = prefix.with_name(prefix.name + ".mapping.txt").read_text().splitlines()
    image = [tuple(map(int, line.split())) for line in lines]
    expect([v for v, _ in image] == list(range(n)), "mapping does not cover every vertex")
    quotient_n, _ = read_edges(prefix.with_name(prefix.name + ".quotient.el"))
    expect(quotient_n == len({w for _, w in image}), "quotient size differs from the image")


def _bfs(adj: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def weighted_median(adj: list[list[int]], weights: list) -> list[int]:
    """Weighted median of a tree.

    These are the vertices whose removal leaves no component heavier than
    half the total weight; with positive weights they are exactly the
    weighted-distance-sum minimizers (Goldman 1971).
    """
    n = len(adj)
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    for v in order:
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    sub = list(weights)
    for v in reversed(order[1:]):
        sub[parent[v]] += sub[v]
    total = sub[0]
    heaviest = [total - sub[v] for v in range(n)]
    for v in order[1:]:
        heaviest[parent[v]] = max(heaviest[parent[v]], sub[v])
    return [v for v in range(n) if 2 * heaviest[v] <= total]


@dataclass(frozen=True)
class Tree:
    """An input tree with its center, median and diameter computed in O(n)."""

    n: int
    center: list[int]
    median: list[int]
    diameter: int

    @classmethod
    def read(cls, path: Path) -> "Tree":
        n, adj = read_edges(path)
        d0 = _bfs(adj, 0)
        far = _bfs(adj, d0.index(max(d0)))
        return cls(n, _leaf_removal_center(adj), weighted_median(adj, [1] * n), max(far))


def _leaf_removal_center(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    degree = [len(a) for a in adj]
    removed = [False] * n
    layer = [v for v in range(n) if degree[v] <= 1]
    alive = n
    while alive > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            for u in adj[v]:
                if not removed[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        alive -= len(layer)
        layer = nxt
    return [v for v in range(n) if not removed[v]]


def tree_metrics(rep: dict, tree: Tree) -> None:
    """A report on a tree must agree with the independent center, median and diameter."""
    expect(rep["center"] == tree.center, f"center {rep['center']} != {tree.center}")
    expect(rep["median"] == tree.median, f"median {rep['median']} != {tree.median}")
    expect(rep["diameter"] == tree.diameter, f"diameter {rep['diameter']} != {tree.diameter}")
    expect(rep["radius"] == (tree.diameter + 1) // 2, "radius is not ceil(diameter / 2)")


def same_graph_metrics(reports: list[dict]) -> None:
    """Reports on one input graph must agree on its radius, diameter, center and median."""
    keys = ("radius", "diameter", "center", "median")
    first = [reports[0][k] for k in keys]
    for rep in reports[1:]:
        expect([rep[k] for k in keys] == first, "reports disagree on the input's metrics")


def digest_files(directory: Path, names: list[str], exit_codes: list[int]) -> str:
    """sha256 over the named files (name and bytes, in order) and the exit codes."""
    h = hashlib.sha256(json.dumps(exit_codes).encode())
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((directory / name).read_bytes())
    return h.hexdigest()
