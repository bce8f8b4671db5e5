"""Command-line interface: generate, simplify, analyze, verify.

Exit codes: 0 on success (all checks passing), 1 when a requested check
fails, 2 on usage or input errors, 3 on an internal error. Outputs are
deterministic for fixed arguments, so reruns can be byte-compared.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, cached_property
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
from .mis import MisResult, mis_derived
from .partition import (
    Partition,
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    sharpness_report,
)
from .quasi import VertexMapping, center_shift
from .weighted import WeightedGraph, median_preserved, weighted_median

class UsageError(QisoError):
    """Bad flags or inconsistent inputs; maps to exit code 2."""


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="qiso", description="quasi-isometric graph simplification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph from a named family")
    gen.add_argument("family", choices=tuple(_FAMILIES))
    gen.add_argument("--n", type=int, help="vertex count")
    gen.add_argument("--m", type=int, help="edge count (random-graph)")
    gen.add_argument("--t", type=int, help="shift-family parameter")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

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

    ana = sub.add_parser("analyze", help="metrics and checks for a graph")
    ana.add_argument("input")
    ana.add_argument("--partition")
    ana.add_argument("--weights")
    ana.add_argument("-o", "--output", required=True, help="report path")

    ver = sub.add_parser("verify", help="run named claim checks")
    ver.add_argument("input")
    ver.add_argument("--partition")
    ver.add_argument("--mapping", help="mapping file for independent-set claims")
    ver.add_argument("--claims", required=True, help="comma-separated claim names")
    ver.add_argument("-o", "--output", required=True, help="report path")
    return parser


# Per family: the flags its generator takes, the edge count they imply,
# and the generator's module-global name (looked up when it runs).
_FAMILIES = {
    "path": (("n",), lambda n: n - 1, "path_graph"),
    "star": (("n",), lambda n: n - 1, "star_graph"),
    "complete": (("n",), lambda n: max(n, 0) * (n - 1) // 2, "complete_graph"),
    "random-tree": (("n", "seed"), lambda n, _: n - 1, "random_tree"),
    "random-graph": (("n", "m", "seed"), lambda n, m, _: m, "random_connected_graph"),
    "shift-family": (("t",), lambda t: 4 * t, "unbounded_shift_family"),
    "chordal-counterexample": ((), lambda: 0, "non_uniecc_chordal"),
}
# The most edges `generate` writes, checked before any generator runs.
_MAX_GENERATED_EDGES = 10**6


def _require(value: Optional[int], flag: str, family: str) -> int:
    if value is None:
        raise UsageError(f"family {family!r} needs {flag}")
    return value


def _partition_sibling(output: str) -> Path:
    out = Path(output)
    return out.with_name(out.stem + ".partition.txt")


def _cmd_generate(args: argparse.Namespace) -> int:
    flags, edge_count, generator = _FAMILIES[args.family]
    values = [_require(getattr(args, f), f"--{f}", args.family) for f in flags]
    edges = edge_count(*values)
    if edges > _MAX_GENERATED_EDGES:
        raise UsageError(
            f"family {args.family!r} would have {edges} edges;"
            f" generate writes at most {_MAX_GENERATED_EDGES}"
        )
    g, partition = globals()[generator](*values), None
    if isinstance(g, tuple):
        g, partition = g
    files = [(args.output, fileio._edge_list_text(g))]
    if partition is not None:
        files.append((_partition_sibling(args.output), fileio._partition_text(partition)))
    fileio._atomic_write(files)
    return 0


class _Subject:
    """A graph and the mapping whose guarantees the claims check.

    That is the partition's quotient mapping when there is a partition,
    else the independent-set derived graph's (``--mapping`` or greedy).
    A ``--mapping`` file is read and validated here, after the graph
    metrics and the partition; the greedy mapping is built on first use.
    """

    def __init__(
        self,
        g: Graph,
        partition: Optional[Partition] = None,
        mapping_path: Optional[str] = None,
    ):
        self.g = g
        # The graph metrics come first: off a tree they build the matrix,
        # whose size guard must run before the partition's block searches.
        self.extremes, self.median = _extremes(g), median(g)
        self.pg = self.sharp = None
        if partition is not None:
            self.pg = build_partition_graph(partition)
            self.sharp = sharpness_report(partition)
        if mapping_path is not None:  # shadows the greedy default below
            image = fileio.read_mapping(mapping_path, g)
            self.mis = mis_derived(g, sorted(set(image)), image)

    @cached_property
    def mis(self) -> MisResult:
        return mis_derived(self.g)

    def guaranteed(self) -> tuple[VertexMapping, str]:
        """The mapping under test and the side of its center-shift bound
        (one-sided: a quotient never stretches).

        An independent-set mapping never stretches either, but it keeps the
        two-sided bound: the one-sided one could flip its shift-bounds verdict,
        and reports stay as they were."""
        if self.pg is not None:
            return self.pg.mapping, "one-sided"
        return self.mis.mapping, "two-sided"

    def fields(self) -> dict:
        """Graph metrics plus the partition's block diameters and compression."""
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
            fields["compression_ratio"] = fileio.fraction_str(self.sharp.compression_ratio)
        return fields


# q1, q2 and ecc-transfer at the mapping's guarantee, and mis-bounds, are
# theorems (SharpnessReport.guarantee, MisResult, quasi.verify_q2): their
# verdict is True, and their exhaustive forms are library calls. A theorem
# rests only on outside input, which is checked as the subject is built: a
# partition when it is read (Partition), a --mapping file when its
# MisResult is built (independence, maximality, adjacent images). The
# greedy set meets those premises by construction (partition._greedy_sweep,
# mis.MisResult), so no theorem builds it. Entries look the library up by
# its module-global name at call time, so rebinding one (as tracing does)
# reaches its checks.
_CHECKS = {
    "q1": lambda s: True,
    "q2": lambda s: True,
    "ecc-transfer": lambda s: True,
    "mis-bounds": lambda s: True,
    "tree-retention": lambda s: s.pg.retains_tree(),
    "compression": lambda s: s.sharp.compresses(),
    "shift-bounds": lambda s: center_shift(s.guaranteed()[0]).within()[s.guaranteed()[1]],
    "median-preservation": lambda s: median_preserved(s.pg, s.median),
}
CLAIMS = tuple(_CHECKS)
# Claims about a partition's quotient, refused without --partition.
_PARTITION_CLAIMS = ("tree-retention", "compression", "median-preservation")


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
        subject = _Subject(g)
        claims += ("mis-bounds",)
    else:
        if args.method == "collapse":
            partition = collapse_basic(g)
        elif args.method == "collapse-modified":
            partition = collapse_modified(g)
        else:
            partition = outward_contraction(g, args.root or 0)
        subject = _Subject(g, partition)
    mapping = subject.guaranteed()[0]
    fields, _ = _shift_fields(mapping)
    fields.update(subject.fields())
    if subject.pg is None:
        fields["compression_ratio"] = fileio.fraction_str(subject.mis.compression_ratio)

    checks = _run_checks(subject, claims)
    if args.all_roots:
        bad_root = first_center_shifting_root(g)
        checks["center-shift-zero-all-roots"] = fileio.check_entry(
            bad_root is None, bad_root
        )

    report = fileio.build_report(
        input=args.input, method=args.method, checks=checks, **fields
    )
    # Every field is computed before the first write, and the files are
    # written all or none, so a failure leaves no partial output behind.
    texts = {"quotient.el": fileio._edge_list_text(mapping.target)}
    if subject.pg is None:
        mis = subject.mis.mis
        texts["mapping.txt"] = fileio._mapping_text([mis[i] for i in mapping.image])
    else:
        texts["partition.txt"] = fileio._partition_text(subject.pg.partition)
    texts["report.json"] = fileio._report_text(report)
    fileio._atomic_write([(f"{args.output}.{end}", text) for end, text in texts.items()])
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
        for side, ok in shift_report.within().items():
            checks[f"shift-within-{side}"] = fileio.check_entry(ok)

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
    if args.partition is None:
        for claim in claims:
            if claim in _PARTITION_CLAIMS:
                raise UsageError(f"{claim} needs --partition")
    elif args.mapping is not None and "mis-bounds" not in claims:
        # Beside a partition, only mis-bounds reads the mapping.
        raise UsageError("--mapping with --partition needs the mis-bounds claim")

    g = fileio.read_edge_list(args.input)
    subject = _Subject(g, _partition_arg(args, g), args.mapping)
    checks = _run_checks(subject, claims)
    report = fileio.build_report(
        input=args.input, method="verify", checks=checks, **subject.fields()
    )
    fileio.write_report(report, args.output)
    return 0 if all(entry["ok"] for entry in checks.values()) else 1


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    # Found by name on every call, so a rebound handler is the one that runs.
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except (QisoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    # qiso makes no BLAS call (its one matrix product is on object dtype),
    # so OpenBLAS's thread pool, started when numpy loads, only burns a
    # second core. A user's own setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry()
