"""Command-line interface: generate, simplify, analyze, verify.

Exit codes: 0 on success (all checks passing), 1 when a requested check
fails, 2 on usage or input errors, 3 on an internal error. Outputs are
deterministic for fixed arguments, so reruns can be byte-compared.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Optional

from . import fileio
from .contraction import (
    first_center_shifting_root,
    outward_contraction,
    unbounded_shift_family,
)
from .errors import QisoError
from .generators import (
    complete_graph,
    non_uniecc_chordal,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from .graph import Graph, _extremes, median
from .mis import MisResult, greedy_mis, mis_derived, verify_mis_bounds
from .partition import (
    Partition,
    PartitionGraph,
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    sharpness_report,
)
from .quasi import (
    VertexMapping,
    center_shift,
    verify_ecc_transfer,
    verify_q1,
    verify_q2,
)
from .weighted import WeightedGraph, _median_blocks, weighted_median

class UsageError(QisoError):
    """Bad flags or inconsistent inputs; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qiso", description="quasi-isometric graph simplification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph from a named family")
    gen.add_argument(
        "family",
        choices=(
            "path",
            "star",
            "complete",
            "random-tree",
            "random-graph",
            "shift-family",
            "chordal-counterexample",
        ),
    )
    gen.add_argument("--n", type=int, help="vertex count")
    gen.add_argument("--m", type=int, help="edge count (random-graph)")
    gen.add_argument("--t", type=int, help="shift-family parameter")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(handler=_cmd_generate)

    simp = sub.add_parser("simplify", help="build a simplification of a graph")
    simp.add_argument("input")
    simp.add_argument(
        "--method",
        required=True,
        choices=("mis", "collapse", "collapse-modified", "outward"),
    )
    simp.add_argument("--root", type=int, help="outward only: root (default 0)")
    simp.add_argument(
        "--all-roots",
        action="store_true",
        help="outward only: check center-shift zero for every root",
    )
    simp.add_argument("-o", "--output", required=True, help="output prefix")
    simp.set_defaults(handler=_cmd_simplify)

    ana = sub.add_parser("analyze", help="metrics and checks for a graph")
    ana.add_argument("input")
    ana.add_argument("--partition")
    ana.add_argument("--weights")
    ana.add_argument("-o", "--output", required=True, help="report path")
    ana.set_defaults(handler=_cmd_analyze)

    ver = sub.add_parser("verify", help="run named claim checks")
    ver.add_argument("input")
    ver.add_argument("--partition")
    ver.add_argument("--mapping", help="mapping file for independent-set claims")
    ver.add_argument("--claims", required=True, help="comma-separated claim names")
    ver.add_argument("-o", "--output", required=True, help="report path")
    ver.set_defaults(handler=_cmd_verify)
    return parser


def _require(value: Optional[int], flag: str, family: str) -> int:
    if value is None:
        raise UsageError(f"family {family!r} needs {flag}")
    return value


def _partition_sibling(output: str) -> Path:
    out = Path(output)
    return out.with_name(out.stem + ".partition.txt")


def _cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    partition = None
    if family == "path":
        g = path_graph(_require(args.n, "--n", family))
    elif family == "star":
        g = star_graph(_require(args.n, "--n", family))
    elif family == "complete":
        g = complete_graph(_require(args.n, "--n", family))
    elif family == "random-tree":
        g = random_tree(_require(args.n, "--n", family), args.seed)
    elif family == "random-graph":
        g = random_connected_graph(
            _require(args.n, "--n", family), _require(args.m, "--m", family), args.seed
        )
    elif family == "shift-family":
        g, partition = unbounded_shift_family(_require(args.t, "--t", family))
    else:
        g = non_uniecc_chordal()
    fileio.write_edge_list(g, args.output)
    if partition is not None:
        fileio.write_partition(partition, _partition_sibling(args.output))
    return 0


class _Subject:
    """A graph and the mapping whose guarantees the claims check.

    That is the partition's quotient mapping when there is a partition,
    else the independent-set derived graph's (``--mapping`` or greedy).
    """

    def __init__(
        self,
        g: Graph,
        partition: Optional[Partition] = None,
        mapping_path: Optional[str] = None,
        report_mis: bool = False,
    ):
        self.g = g
        # The graph metrics come first: off a tree they build the matrix,
        # whose size guard must run before the partition's block searches.
        self.extremes, self.median = _extremes(g), median(g)
        self.pg = self.sharp = None
        if partition is not None:
            self.pg = build_partition_graph(g, partition)
            self.sharp = sharpness_report(g, partition)
        self._mapping_path = mapping_path
        self._report_mis = report_mis

    @cached_property
    def mis(self) -> MisResult:
        if self._mapping_path is None:
            return mis_derived(self.g, greedy_mis(self.g))
        image = fileio.read_mapping(self._mapping_path, self.g)
        return mis_derived(self.g, sorted(set(image)), image)

    def guaranteed(self) -> tuple[VertexMapping, int, int]:
        """The mapping under test with its guaranteed stretch and additive."""
        if self.pg is not None:
            return self.pg.mapping, self.sharp.sharpness + 1, 1
        return self.mis.mapping, 3, 1

    def partition_graph(self, claim: str) -> PartitionGraph:
        if self.pg is None:
            raise UsageError(f"{claim} needs --partition")
        return self.pg

    def fields(self) -> dict:
        """Graph metrics plus the block diameters and compression, if any."""
        cen, radius, diameter = self.extremes
        fields: dict[str, object] = {
            "radius": radius,
            "diameter": diameter,
            "center": list(cen),
            "median": list(self.median),
        }
        if self.sharp is not None:
            fields["sharpness"] = self.sharp.sharpness
            fields["coarseness"] = self.sharp.coarseness
        if self.sharp is not None or self._report_mis:
            target = self.guaranteed()[0].target
            ratio = Fraction(target.vertex_count, self.g.vertex_count)
            fields["compression_ratio"] = fileio.fraction_str(ratio)
        return fields


def _compression(s: _Subject) -> bool:
    blocks = s.partition_graph("compression").quotient.vertex_count
    return blocks * (s.sharp.coarseness + 1) <= s.g.vertex_count


def _shift_bounds(s: _Subject) -> bool:
    report = center_shift(s.guaranteed()[0])
    ok = report.shift <= report.two_sided_bound
    return ok and (s.pg is None or report.shift <= report.one_sided_bound)


def _median_preservation(s: _Subject) -> bool:
    pg = s.partition_graph("median-preservation")
    if not s.g.is_tree:
        return True
    true_median = set(s.median)
    return all(true_median.intersection(blk) for blk in _median_blocks(pg))


# Entries look the library up by its module-global name at call time, so
# rebinding those names (as tracing does) reaches every check.
_CHECKS = {
    "q1": lambda s: verify_q1(*s.guaranteed()),
    "q2": lambda s: verify_q2(s.guaranteed()[0], 0),
    "ecc-transfer": lambda s: verify_ecc_transfer(*s.guaranteed()),
    "mis-bounds": lambda s: verify_mis_bounds(s.mis),
    "tree-retention": lambda s: (
        s.partition_graph("tree-retention").quotient.is_tree or not s.g.is_tree
    ),
    "compression": _compression,
    "shift-bounds": _shift_bounds,
    "median-preservation": _median_preservation,
}
CLAIMS = tuple(_CHECKS)


def _run_checks(subject: _Subject, claims) -> dict[str, dict]:
    """Each claim's entry, run once, in order of first mention."""
    return {c: fileio.check_entry(_CHECKS[c](subject)) for c in dict.fromkeys(claims)}


def _shift_fields(mapping: VertexMapping) -> tuple[dict, object]:
    report = center_shift(mapping)
    c = report.constants
    fields = {
        "constants": {"A": c.stretch, "B": c.additive, "C": c.density},
        "center_shift": report.shift,
        "bounds": {
            "two_sided": fileio.fraction_str(report.two_sided_bound),
            "one_sided": fileio.fraction_str(report.one_sided_bound),
        },
    }
    return fields, report


def _cmd_simplify(args: argparse.Namespace) -> int:
    """Build, check and write one simplification."""
    if args.method != "outward":
        if args.root is not None:
            raise UsageError("--root needs --method outward")
        if args.all_roots:
            raise UsageError("--all-roots needs --method outward")
    g = fileio.read_edge_list(args.input)
    claims: tuple[str, ...] = ("q1", "q2")
    if args.method == "mis":
        subject = _Subject(g, report_mis=True)
        claims += ("mis-bounds",)
    else:
        if args.method == "collapse":
            partition = collapse_basic(g)
        elif args.method == "collapse-modified":
            partition = collapse_modified(g)
        else:
            root = args.root or 0
            g.check_vertex(root)
            partition = outward_contraction(g, root)
        subject = _Subject(g, partition)
    mapping = subject.guaranteed()[0]
    fields, _ = _shift_fields(mapping)
    fields.update(subject.fields())

    checks = _run_checks(subject, claims)
    if args.all_roots:
        bad_root = first_center_shifting_root(g)
        checks["center-shift-zero-all-roots"] = fileio.check_entry(
            bad_root is None, bad_root
        )

    report = fileio.build_report(
        input=args.input, method=args.method, checks=checks, **fields
    )
    # Every field is computed before the first write, so a failure above
    # leaves no partial output behind.
    prefix = args.output
    fileio.write_edge_list(mapping.target, f"{prefix}.quotient.el")
    if subject.pg is None:
        mis = subject.mis.mis
        fileio.write_mapping([mis[i] for i in mapping.image], f"{prefix}.mapping.txt")
    else:
        fileio.write_partition(subject.pg.partition, f"{prefix}.partition.txt")
    fileio.write_report(report, f"{prefix}.report.json")
    return 0


def _partition_arg(args: argparse.Namespace, g: Graph) -> Optional[Partition]:
    return None if args.partition is None else fileio.read_partition(args.partition, g)


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = fileio.read_edge_list(args.input)
    extra: dict[str, object] = {}
    checks: dict[str, dict] = {}

    if args.weights is not None:
        weights = fileio.read_weights(args.weights, g)
        extra["weighted_median"] = list(weighted_median(WeightedGraph(g, tuple(weights))))

    subject = _Subject(g, _partition_arg(args, g))
    if subject.pg is not None:
        shift_fields, shift_report = _shift_fields(subject.pg.mapping)
        extra.update(shift_fields)
        checks["shift-within-two-sided"] = fileio.check_entry(
            shift_report.shift <= shift_report.two_sided_bound
        )
        checks["shift-within-one-sided"] = fileio.check_entry(
            shift_report.shift <= shift_report.one_sided_bound
        )

    report = fileio.build_report(
        input=args.input, method="analyze", checks=checks, **subject.fields(), **extra
    )
    fileio.write_report(report, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    if not claims:
        raise UsageError("no claims given")
    for claim in claims:
        if claim not in _CHECKS:
            raise UsageError(f"unknown claim {claim!r}; known: {', '.join(CLAIMS)}")

    g = fileio.read_edge_list(args.input)
    subject = _Subject(g, _partition_arg(args, g), args.mapping)
    checks = _run_checks(subject, claims)
    report = fileio.build_report(
        input=args.input, method="verify", checks=checks, **subject.fields()
    )
    fileio.write_report(report, args.output)
    return 0 if all(entry["ok"] for entry in checks.values()) else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.handler(args)
    except (QisoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
