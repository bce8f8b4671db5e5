"""Command-line interface: generate, simplify, analyze, verify.

Exit codes: 0 on success (all checks passing), 1 when a requested check
fails, 2 on usage or input errors. Outputs are deterministic for fixed
arguments, so reruns can be byte-compared.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import fileio
from .contraction import outward_contraction, unbounded_shift_family
from .errors import QisoError
from .generators import (
    complete_graph,
    non_uniecc_chordal,
    path_graph,
    random_connected_graph,
    random_tree,
    star_graph,
)
from .graph import Graph, center, eccentricity_profile, median
from .mis import greedy_mis, mis_derived, verify_mis_bounds
from .partition import (
    Partition,
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
from .weighted import WeightedGraph, weighted_median, weighted_partition_tree

CLAIMS = (
    "q1",
    "q2",
    "ecc-transfer",
    "mis-bounds",
    "tree-retention",
    "compression",
    "shift-bounds",
    "median-preservation",
)


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
    simp.add_argument("--root", type=int, default=0, help="root for outward")
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


def _graph_metrics(g: Graph) -> dict:
    prof = eccentricity_profile(g)
    return {
        "radius": prof.radius,
        "diameter": prof.diameter,
        "center": list(center(g)),
        "median": list(median(g)),
    }


def _constants_field(constants) -> dict:
    return {"A": constants.stretch, "B": constants.additive, "C": constants.density}


def _shift_fields(mapping: VertexMapping) -> tuple[dict, object]:
    report = center_shift(mapping)
    fields = {
        "constants": _constants_field(report.constants),
        "center_shift": report.shift,
        "bounds": {
            "two_sided": fileio.fraction_str(report.two_sided_bound),
            "one_sided": fileio.fraction_str(report.one_sided_bound),
        },
    }
    return fields, report


def _cmd_simplify(args: argparse.Namespace) -> int:
    g = fileio.read_edge_list(args.input)
    prefix = args.output
    checks: dict[str, dict] = {}
    fields: dict[str, object] = dict(_graph_metrics(g))

    if args.method == "mis":
        result = mis_derived(g, greedy_mis(g))
        quotient = result.derived
        image_orig = [result.mis[i] for i in result.mapping.image]
        mapping = result.mapping
        fields["compression_ratio"] = fileio.fraction_str(
            Fraction(result.derived.vertex_count, g.vertex_count)
        )
        checks["q1"] = fileio.check_entry(verify_q1(mapping, 3, 1))
        checks["q2"] = fileio.check_entry(verify_q2(mapping, 0))
        checks["mis-bounds"] = fileio.check_entry(verify_mis_bounds(result))
    else:
        if args.method == "collapse":
            partition = collapse_basic(g)
        elif args.method == "collapse-modified":
            partition = collapse_modified(g)
        else:
            g.check_vertex(args.root)
            partition = outward_contraction(g, args.root)
        pg = build_partition_graph(g, partition)
        quotient = pg.quotient
        mapping = pg.mapping
        rep = sharpness_report(g, partition)
        fields["sharpness"] = rep.sharpness
        fields["coarseness"] = rep.coarseness
        fields["compression_ratio"] = fileio.fraction_str(rep.compression_ratio)
        checks["q1"] = fileio.check_entry(
            verify_q1(mapping, rep.sharpness + 1, 1)
        )
        checks["q2"] = fileio.check_entry(verify_q2(mapping, 0))
        if args.method == "outward" and args.all_roots:
            bad_root = None
            for root in g.vertices():
                pg_root = build_partition_graph(g, outward_contraction(g, root))
                if center_shift(pg_root.mapping).shift != 0:
                    bad_root = root
                    break
            checks["center-shift-zero-all-roots"] = fileio.check_entry(
                bad_root is None, bad_root
            )

    shift_fields, _ = _shift_fields(mapping)
    fields.update(shift_fields)
    report = fileio.build_report(
        input=args.input, method=args.method, checks=checks, **fields
    )
    # Every field is computed before the first write, so a failure above
    # leaves no partial output behind.
    fileio.write_edge_list(quotient, f"{prefix}.quotient.el")
    if args.method == "mis":
        fileio.write_mapping(image_orig, f"{prefix}.mapping.txt")
    else:
        fileio.write_partition(partition, f"{prefix}.partition.txt")
    fileio.write_report(report, f"{prefix}.report.json")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = fileio.read_edge_list(args.input)
    fields: dict[str, object] = dict(_graph_metrics(g))
    checks: dict[str, dict] = {}

    if args.weights is not None:
        weights = fileio.read_weights(args.weights, g)
        fields["weighted_median"] = list(weighted_median(WeightedGraph(g, tuple(weights))))

    if args.partition is not None:
        partition = fileio.read_partition(args.partition, g)
        pg = build_partition_graph(g, partition)
        rep = sharpness_report(g, partition)
        fields["sharpness"] = rep.sharpness
        fields["coarseness"] = rep.coarseness
        fields["compression_ratio"] = fileio.fraction_str(rep.compression_ratio)
        shift_fields, shift_report = _shift_fields(pg.mapping)
        fields.update(shift_fields)
        checks["shift-within-two-sided"] = fileio.check_entry(
            shift_report.shift <= shift_report.two_sided_bound
        )
        checks["shift-within-one-sided"] = fileio.check_entry(
            shift_report.shift <= shift_report.one_sided_bound
        )

    report = fileio.build_report(
        input=args.input, method="analyze", checks=checks, **fields
    )
    fileio.write_report(report, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    if not claims:
        raise UsageError("no claims given")
    for claim in claims:
        if claim not in CLAIMS:
            raise UsageError(f"unknown claim {claim!r}; known: {', '.join(CLAIMS)}")

    g = fileio.read_edge_list(args.input)
    partition: Optional[Partition] = None
    pg = None
    sharp = None
    if args.partition is not None:
        partition = fileio.read_partition(args.partition, g)
        pg = build_partition_graph(g, partition)
        sharp = sharpness_report(g, partition)

    mis_result = None

    def need_mis():
        nonlocal mis_result
        if mis_result is None:
            if args.mapping is not None:
                image = fileio.read_mapping(args.mapping, g)
                mis = sorted({w for w in image})
                mis_result = mis_derived(g, mis, image)
            else:
                mis_result = mis_derived(g, greedy_mis(g))
        return mis_result

    def guaranteed_mapping() -> tuple[VertexMapping, int, int]:
        """The mapping under test with its guaranteed constants."""
        if pg is not None:
            return pg.mapping, sharp.sharpness + 1, 1
        return need_mis().mapping, 3, 1

    checks: dict[str, dict] = {}
    for claim in claims:
        if claim == "q1":
            mapping, a, b = guaranteed_mapping()
            checks[claim] = fileio.check_entry(verify_q1(mapping, a, b))
        elif claim == "q2":
            mapping, _, _ = guaranteed_mapping()
            checks[claim] = fileio.check_entry(verify_q2(mapping, 0))
        elif claim == "ecc-transfer":
            mapping, a, b = guaranteed_mapping()
            checks[claim] = fileio.check_entry(verify_ecc_transfer(mapping, a, b))
        elif claim == "mis-bounds":
            checks[claim] = fileio.check_entry(verify_mis_bounds(need_mis()))
        elif claim == "tree-retention":
            if pg is None:
                raise UsageError("tree-retention needs --partition")
            checks[claim] = fileio.check_entry(
                not g.is_tree or pg.quotient.is_tree
            )
        elif claim == "compression":
            if pg is None:
                raise UsageError("compression needs --partition")
            b = sharp.coarseness
            checks[claim] = fileio.check_entry(
                len(partition.blocks) * (b + 1) <= g.vertex_count
            )
        elif claim == "shift-bounds":
            mapping, _, _ = guaranteed_mapping()
            report = center_shift(mapping)
            ok = report.shift <= report.two_sided_bound
            if pg is not None:
                ok = ok and report.shift <= report.one_sided_bound
            checks[claim] = fileio.check_entry(ok)
        elif claim == "median-preservation":
            if pg is None:
                raise UsageError("median-preservation needs --partition")
            if not g.is_tree:
                checks[claim] = fileio.check_entry(True)
            else:
                wq, _ = weighted_partition_tree(g, partition)
                true_median = set(median(g))
                ok = all(
                    true_median.intersection(partition.blocks[b])
                    for b in weighted_median(wq)
                )
                checks[claim] = fileio.check_entry(ok)

    fields = dict(_graph_metrics(g))
    if sharp is not None:
        fields["sharpness"] = sharp.sharpness
        fields["coarseness"] = sharp.coarseness
        fields["compression_ratio"] = fileio.fraction_str(sharp.compression_ratio)
    report = fileio.build_report(
        input=args.input, method="verify", checks=checks, **fields
    )
    fileio.write_report(report, args.output)
    return 0 if all(entry["ok"] for entry in checks.values()) else 1


def _check_thread_cap() -> None:
    raw = os.environ.get("QISO_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"QISO_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise UsageError(f"QISO_THREADS must be >= 1, got {cap}")
    # Execution is single-threaded, so any positive cap is respected.


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        _check_thread_cap()
        return args.handler(args)
    except QisoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
