"""Seeded inputs and the per-instance command sequence of each workload.

Run as a script, this is the set-up step whose wall time the benchmark
reports as ``setup_s``: a fresh interpreter imports ``qiso.cli`` (the
import every real ``qiso`` command pays) and writes one workload's inputs
with ``qiso.generators``::

    python3 perfbench/workloads.py --workload tree-large --seed 1 --out DIR

The same seed always gives byte-identical inputs. The program under test
only ever sees the generated files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent

CLAIMS_TREE = "q1,q2,ecc-transfer,tree-retention,compression,shift-bounds,median-preservation"
CLAIMS_ALL = "q1,q2,ecc-transfer,mis-bounds,tree-retention,compression,shift-bounds,median-preservation"
CLAIMS_MIS = "mis-bounds,q1,q2,ecc-transfer,shift-bounds"
CLAIMS_COLLAPSE = "q1,q2,ecc-transfer,tree-retention,compression,shift-bounds"


# Instances whose outputs form the workload digest. They always run,
# whatever ``--seconds`` says; set-up generates exactly these, and the
# traced run repeats exactly these, so its counts repeat for a given seed.
# Later instances are generated on demand, each from its own seed, so the
# loop never runs an instance twice and a cache across commands cannot
# feed on repeats.
DIGEST_INSTANCES = {"tree-large": 8, "graph-sparse": 4, "tree-small-many": 128}

# Sizes keep each command under about half a second, so the probes that
# bracket it (probe.py) see the speed it ran at, and a run holds many samples.
TREE_LARGE_N = 400
ALL_ROOTS_N = 100
GRAPH_SPARSE_N, GRAPH_SPARSE_M = 400, 1200


def _write_edges(path: Path, n: int, edges, header_m: int | None = None) -> None:
    m = len(edges) if header_m is None else header_m
    path.write_text(f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def _subseed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _gen_tree_large(gen, rng: random.Random, d: Path, i: int) -> dict:
    n = TREE_LARGE_N
    if i % 4 == 3:
        # Alternating keeps the mix of a run's first instances the same on every seed.
        kind = "path" if i % 8 == 3 else "star"
        g = gen.path_graph(n) if kind == "path" else gen.star_graph(n)
    else:
        kind = "tree"
        g = gen.random_tree(n, _subseed(rng))
    _write_edges(d / "g.el", n, g.edges())
    _write_edges(d / "ar.el", ALL_ROOTS_N, gen.random_tree(ALL_ROOTS_N, _subseed(rng)).edges())
    return {"kind": kind, "root": rng.randrange(n)}


def _gen_graph_sparse(gen, rng: random.Random, d: Path, i: int) -> dict:
    n, m = GRAPH_SPARSE_N, GRAPH_SPARSE_M
    _write_edges(d / "g.el", n, gen.random_connected_graph(n, m, _subseed(rng)).edges())
    return {"kind": "graph"}


def _gen_tree_small_many(gen, rng: random.Random, d: Path, i: int) -> dict:
    n = rng.randint(8, 48)
    edges = gen.random_tree(n, _subseed(rng)).edges()
    root = rng.randrange(n)
    weights = "".join(f"{v} {rng.randint(1, 9)}/{rng.randint(1, 9)}\n" for v in range(n))
    (d / "w.txt").write_text(weights)
    if i % 8 != 7:
        _write_edges(d / "g.el", n, edges)
        return {"kind": "tree", "root": root}
    # One instance in eight is a corrupted edge list; every command must
    # reject it with exit 2 and write nothing.
    kind = rng.choice(("duplicate-edge", "header-count", "disconnected"))
    k = rng.randrange(len(edges))
    if kind == "duplicate-edge":
        _write_edges(d / "g.el", n, edges + [edges[k]])
    elif kind == "header-count":
        _write_edges(d / "g.el", n, edges, len(edges) + rng.choice((-1, 1)))
    else:
        _write_edges(d / "g.el", n, edges[:k] + edges[k + 1 :])
    (d / "p.txt").write_text("".join(f"{v}\n" for v in range(n)))
    return {"kind": kind, "root": root}


_GENERATORS = {
    "tree-large": _gen_tree_large,
    "graph-sparse": _gen_graph_sparse,
    "tree-small-many": _gen_tree_small_many,
}


def generate_instance(workload: str, seed: int, i: int, out: Path) -> dict:
    """Write instance ``i`` under ``out/iNNNN`` and return its description."""
    from qiso import generators

    d = out / f"i{i:04d}"
    d.mkdir(parents=True)
    inst = _GENERATORS[workload](generators, random.Random(f"{workload}:{seed}:{i}"), d, i)
    inst["dir"] = d.name
    return inst


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the digest instances under ``out`` and return their descriptions.

    The descriptions are also written to ``out/manifest.json``.
    """
    manifest = [generate_instance(workload, seed, i, out) for i in range(DIGEST_INSTANCES[workload])]
    (out / "manifest.json").write_text(json.dumps(manifest))
    return manifest


# --- per-instance command sequences ---------------------------------------
#
# ``s.op(kind, argv, expect, check)`` runs one in-process ``qiso`` command,
# times it, and counts it failed when the exit code differs from
# ``expect`` or ``check`` raises. Paths are relative to the work directory,
# so reports (which echo the input path) are byte-identical across runs.


def _block_weights(out: Path, partition_file: str) -> str:
    """Write block cardinalities of a partition as a weight file; return its path."""
    blocks = checks.read_partition(out / partition_file)
    path = out / "qw.txt"
    path.write_text("".join(f"{b} {len(blk)}\n" for b, blk in enumerate(blocks)))
    return str(path)


def _simplify_outward(s, src: str, root: int, prefix: Path, tree: checks.Tree) -> None:
    argv = ["simplify", src, "--method", "outward", "--root", str(root), "-o", str(prefix)]

    def check():
        rep = checks.partition_outputs(prefix, tree.n, max_sharpness=2)
        checks.expect(rep["center_shift"] == 0, "outward center_shift is not 0")
        checks.tree_metrics(rep, tree)

    s.op("simplify", argv, 0, check)


def _analyze_partition(s, src: str, partition: str, report: Path, tree: checks.Tree) -> None:
    def check():
        rep = checks.passing_report(report)
        checks.expect(rep["sharpness"] <= 2, f"outward sharpness {rep['sharpness']} above 2")
        checks.expect(rep["center_shift"] == 0, "outward center_shift is not 0")
        checks.tree_metrics(rep, tree)

    s.op("analyze", ["analyze", src, "--partition", partition, "-o", str(report)], 0, check)


def _analyze_weights(s, src: str, weights: str, report: Path) -> None:
    def check():
        rep = checks.passing_report(report)
        n, adj = checks.read_edges(Path(src))
        w = checks.read_weights(Path(weights), n)
        checks.expect(
            rep["weighted_median"] == checks.weighted_median(adj, w),
            "weighted_median differs from the independent computation",
        )

    s.op("weights", ["analyze", src, "--weights", weights, "-o", str(report)], 0, check)


def _verify(s, argv: list[str], report: Path, tree) -> None:
    def check():
        rep = checks.passing_report(report)
        if tree is not None:
            checks.tree_metrics(rep, tree)

    s.op("verify", argv + ["-o", str(report)], 0, check)


def run_tree_large(s, inst: dict, d: Path, out: Path) -> list[str]:
    src = str(d / "g.el")
    tree = checks.Tree.read(Path(src))
    _simplify_outward(s, src, inst["root"], out / "s", tree)
    part = str(out / "s.partition.txt")
    _analyze_partition(s, src, part, out / "a.json", tree)
    weights = _block_weights(out, "s.partition.txt")
    _analyze_weights(s, str(out / "s.quotient.el"), weights, out / "w.json")
    _verify(s, ["verify", src, "--partition", part, "--claims", CLAIMS_TREE], out / "v.json", tree)

    ar = str(d / "ar.el")
    prefix = out / "r"

    def check_all_roots():
        rep = checks.partition_outputs(prefix, ALL_ROOTS_N, max_sharpness=2)
        checks.expect(rep["center_shift"] == 0, "outward center_shift is not 0")
        checks.expect("center-shift-zero-all-roots" in rep["checks"], "no all-roots check")

    s.op("all_roots", ["simplify", ar, "--method", "outward", "--all-roots", "-o", str(prefix)],
         0, check_all_roots)
    return ["s.quotient.el", "s.partition.txt", "s.report.json", "a.json", "qw.txt", "w.json",
            "v.json", "r.quotient.el", "r.partition.txt", "r.report.json"]


def run_graph_sparse(s, inst: dict, d: Path, out: Path) -> list[str]:
    src = str(d / "g.el")
    n = GRAPH_SPARSE_N

    def simplify(method: str, prefix: str, max_sharpness):
        def check():
            if max_sharpness is None:
                rep = checks.passing_report(out / f"{prefix}.report.json")
                checks.mapping_outputs(out / prefix, n)
            else:
                rep = checks.partition_outputs(out / prefix, n, max_sharpness)
            reports.append(rep)

        s.op("simplify", ["simplify", src, "--method", method, "-o", str(out / prefix)], 0, check)

    reports: list[dict] = []
    simplify("mis", "m", None)
    simplify("collapse", "c", 2)
    simplify("collapse-modified", "cm", 4)
    part = str(out / "cm.partition.txt")
    _verify(s, ["verify", src, "--mapping", str(out / "m.mapping.txt"), "--claims", CLAIMS_MIS],
            out / "vm.json", None)
    _verify(s, ["verify", src, "--partition", part, "--claims", CLAIMS_COLLAPSE],
            out / "vc.json", None)

    def consistent():
        for name in ("vm.json", "vc.json"):
            reports.append(checks.load_report(out / name))
        checks.same_graph_metrics(reports)

    s.check_instance(consistent)
    return ["m.quotient.el", "m.mapping.txt", "m.report.json", "c.quotient.el",
            "c.partition.txt", "c.report.json", "cm.quotient.el", "cm.partition.txt",
            "cm.report.json", "vm.json", "vc.json"]


def run_tree_small_many(s, inst: dict, d: Path, out: Path) -> list[str]:
    src = str(d / "g.el")
    weights = str(d / "w.txt")
    if inst["kind"] != "tree":
        part = str(d / "p.txt")
        for kind, argv in (
            ("simplify", ["simplify", src, "--method", "outward", "--root", str(inst["root"]),
                          "-o", str(out / "s")]),
            ("weights", ["analyze", src, "--weights", weights, "-o", str(out / "w.json")]),
            ("verify", ["verify", src, "--partition", part, "--claims", CLAIMS_ALL,
                        "-o", str(out / "v.json")]),
        ):
            s.op(kind, argv, 2, None)
        return []
    tree = checks.Tree.read(Path(src))
    _simplify_outward(s, src, inst["root"], out / "s", tree)
    part = str(out / "s.partition.txt")
    _analyze_weights(s, src, weights, out / "w.json")
    _verify(s, ["verify", src, "--partition", part, "--claims", CLAIMS_ALL], out / "v.json", tree)
    return ["s.quotient.el", "s.partition.txt", "s.report.json", "w.json", "v.json"]


RUNNERS = {
    "tree-large": run_tree_large,
    "graph-sparse": run_graph_sparse,
    "tree-small-many": run_tree_small_many,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DIGEST_INSTANCES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import qiso.cli  # noqa: F401  -- the import every qiso command pays

    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
