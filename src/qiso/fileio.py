"""Text formats for graphs, partitions, weights and mappings, plus reports.

All writers emit canonical bytes (sorted edges, fixed key order, exact
``p/q`` rationals), so identical inputs always produce identical files.
Files are written through temp files and renames, all or none.
"""

from __future__ import annotations

import json
import operator
import os
import re
import tempfile
from fractions import Fraction
from itertools import chain, count
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import FormatError
from .graph import Graph
from .partition import Partition

PathLike = Union[str, Path]


def _atomic_write(files: Sequence[tuple[PathLike, str]]) -> None:
    """Write every ``(path, text)`` file or none of them.

    Each text goes to a temp file beside its path before the first
    rename. If a write or rename fails, the files already renamed and
    the temp files left over are removed.
    """
    # mkstemp makes files 0600; give them the mode open() would.
    umask = os.umask(0)
    os.umask(umask)
    temps: list[str] = []
    done = 0
    try:
        for path, text in files:
            fd, tmp = tempfile.mkstemp(dir=Path(path).parent, prefix=Path(path).name)
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                os.fchmod(fd, 0o666 & ~umask)
                handle.write(text)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
            done += 1
    except BaseException:
        for leftover in [path for path, _ in files[:done]] + temps[done:]:
            Path(leftover).unlink(missing_ok=True)
        raise


def _content_lines(path: PathLike) -> list[tuple[int, list[str]]]:
    """Fields of each non-comment, non-blank line, with its 1-based number.

    The file is read in one piece and split at "\n" alone (after the
    usual "\r\n" and "\r" translation), never at the other breaks that
    ``str.splitlines`` knows, so line numbers count newlines only.
    """
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
    """Whether ``token`` is ASCII ``0``-``9`` alone, as every integer read must be.

    ``int()`` alone would also take a sign, ``_`` and other scripts' digits.
    """
    return token.isascii() and token.isdigit()


def _ints(fields: list[str], lineno: int, expect: Optional[int] = None) -> list[int]:
    """The fields as integers, ``expect`` of them when given."""
    if expect is not None and len(fields) != expect:
        raise FormatError(f"line {lineno}: expected {expect} fields, got {len(fields)}")
    for f in fields:
        if not _digits(f):
            raise FormatError(f"line {lineno}: invalid literal for int() with base 10: {f!r}")
    try:
        return [int(f) for f in fields]
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"line {lineno}: {exc}") from None


# Two-column files in the canonical form qiso writes them: one "a b"
# pair per line, ASCII digits and one space, "\n" after every line, no
# blank or comment line. At most 18 digits keeps each value below 2**63,
# where np.fromstring would saturate; one pair or more excludes b"" and
# b"\n", which it reads as [] and [0].
_CANONICAL = re.compile(rb"(?:[0-9]{1,18} [0-9]{1,18}\n)+")


def _canonical_ints(path: PathLike) -> Optional[list[int]]:
    """Every integer of a canonical file, in order, from one C-level call.

    None for any other file, which only the line walk reads and reports on.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if not _CANONICAL.fullmatch(data):
        return None
    import numpy as np

    return np.fromstring(data, dtype=np.int64, sep=" ").tolist()


def read_edge_list(path: PathLike) -> Graph:
    """Parse an edge-list file: header ``n m`` then ``m`` lines ``u v``."""
    ints = _canonical_ints(path)
    body = None
    # A file not in canonical form, and a canonical one with an edge out of
    # order, is walked line by line, which reports the first bad line.
    if ints is None or not all(map(operator.lt, ints[2::2], ints[3::2])):
        lines = _content_lines(path)
        if not lines:
            raise FormatError(f"{path}: empty file")
        (lineno, header), *body = lines
        ints = _ints(header, lineno, 2)
    n, m = ints[0], ints[1]
    if n > m + 1:  # before Graph allocates n adjacency lists
        raise FormatError(f"{path}: {m} edges cannot connect {n} vertices")
    found = len(ints) // 2 - 1 if body is None else len(body)
    if found != m:
        raise FormatError(f"{path}: header says {m} edges, found {found}")
    for lineno, fields in body or ():
        u, v = _ints(fields, lineno, 2)
        if not u < v:
            raise FormatError(f"line {lineno}: edges must satisfy u < v, got {u} {v}")
        ints += (u, v)
    return Graph(n, zip(ints[2::2], ints[3::2]))


def _edge_list_text(g: Graph) -> str:
    ints = [g.vertex_count, g.edge_count]
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs:
            if u < v:
                ints.append(u)
                ints.append(v)
    return "%d %d\n" * (g.edge_count + 1) % tuple(ints)


def write_edge_list(g: Graph, path: PathLike) -> None:
    _atomic_write([(path, _edge_list_text(g))])


def read_partition(path: PathLike, g: Graph) -> Partition:
    """Parse a partition file: line ``i`` lists block ``i``, ids ascending."""
    blocks = []
    for lineno, fields in _content_lines(path):
        members = _ints(fields, lineno)
        if any(a >= b for a, b in zip(members, members[1:])):
            raise FormatError(f"line {lineno}: ids must be strictly increasing")
        blocks.append(members)
    return Partition(g, blocks)


def _partition_text(p: Partition) -> str:
    lines = [" ".join(str(v) for v in blk) for blk in p.blocks]
    return "\n".join(lines) + "\n"


def write_partition(p: Partition, path: PathLike) -> None:
    _atomic_write([(path, _partition_text(p))])


def _parse_weight(token: str, lineno: int) -> Fraction:
    if not all(map(_digits, token.split("/", 1))):
        raise FormatError(f"line {lineno}: weight must be an integer or p/q, got {token!r}")
    try:
        return Fraction(token)
    except (ZeroDivisionError, ValueError):  # zero denominator, too many digits
        raise FormatError(f"line {lineno}: weight {token!r} is not a rational") from None


def read_weights(path: PathLike, g: Graph) -> list[Union[int, Fraction]]:
    """Parse a weight file of ``vertex weight`` lines covering every vertex.

    A canonical file that lists the vertices 0..n-1 in order holds every
    weight as an int, its second column; any other file is walked line by
    line into Fractions, which reports the first bad line.
    """
    ints = _canonical_ints(path)
    if ints is not None and ints[0::2] == list(range(g.vertex_count)):
        return ints[1::2]
    weights: dict[int, Fraction] = {}
    for lineno, fields in _content_lines(path):
        if len(fields) != 2:
            raise FormatError(f"line {lineno}: expected 'vertex weight'")
        (v,) = _ints(fields[:1], lineno)
        if not (0 <= v < g.vertex_count):
            raise FormatError(f"line {lineno}: vertex {v} out of range")
        if v in weights:
            raise FormatError(f"line {lineno}: duplicate weight for vertex {v}")
        weights[v] = _parse_weight(fields[1], lineno)
    missing = g.vertex_count - len(weights)
    if missing:
        raise FormatError(f"{path}: {missing} vertices have no weight")
    return [weights[v] for v in range(g.vertex_count)]


def weight_str(w: Union[int, Fraction]) -> str:
    frac = Fraction(w)
    return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def write_weights(weights: Sequence[Union[int, Fraction]], path: PathLike) -> None:
    lines = [f"{v} {weight_str(w)}" for v, w in enumerate(weights)]
    _atomic_write([(path, "\n".join(lines) + "\n")])


def read_mapping(path: PathLike, g: Graph) -> list[int]:
    """Parse a mapping file of ``vertex image`` lines (original vertex ids)."""
    ints = _canonical_ints(path)
    if ints is None:
        rows = ((lineno, *_ints(fields, lineno, 2)) for lineno, fields in _content_lines(path))
    else:  # a canonical file has no comment or blank line to skip
        rows = zip(count(1), ints[0::2], ints[1::2])
    image: dict[int, int] = {}
    for lineno, v, w in rows:
        if not (0 <= v < g.vertex_count and 0 <= w < g.vertex_count):
            raise FormatError(f"line {lineno}: vertex out of range")
        if v in image:
            raise FormatError(f"line {lineno}: duplicate image for vertex {v}")
        image[v] = w
    missing = g.vertex_count - len(image)
    if missing:
        raise FormatError(f"{path}: {missing} vertices have no image")
    return [image[v] for v in range(g.vertex_count)]


def _mapping_text(image: Sequence[int]) -> str:
    return "%d %d\n" * len(image) % tuple(chain.from_iterable(enumerate(image)))


def write_mapping(image: Sequence[int], path: PathLike) -> None:
    _atomic_write([(path, _mapping_text(image))])


def fraction_str(x: Union[int, Fraction]) -> str:
    """Exact ``p/q`` form used for every rational in reports."""
    frac = Fraction(x)
    return f"{frac.numerator}/{frac.denominator}"


_REPORT_KEYS = (
    "input",
    "method",
    "constants",
    "sharpness",
    "coarseness",
    "compression_ratio",
    "radius",
    "diameter",
    "center",
    "median",
    "weighted_median",
    "center_shift",
    "bounds",
    "checks",
)


def build_report(**fields: object) -> dict:
    """Assemble a report with the canonical key order, None for absences."""
    unknown = set(fields) - set(_REPORT_KEYS)
    if unknown:
        raise ValueError(f"unknown report fields: {sorted(unknown)}")
    report = {key: fields.get(key) for key in _REPORT_KEYS}
    if report["checks"] is None:
        report["checks"] = {}
    return report


def check_entry(result: object, witness: object = None) -> dict:
    """One named verdict for the ``checks`` map of a report."""
    ok = bool(result)
    wit = witness
    if wit is None and hasattr(result, "witness"):
        wit = result.witness
    return {"ok": ok, "witness": list(wit) if isinstance(wit, tuple) else wit}


def _report_text(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_report(report: dict, path: PathLike) -> None:
    _atomic_write([(path, _report_text(report))])
