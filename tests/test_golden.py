"""Byte-level pin of the CLI's outputs on a fixed battery of small inputs.

One sha256 covers every file the battery writes, and each command's
argv, exit code, stdout and stderr. A refactor that keeps reports,
messages and exit codes identical leaves ``GOLDEN`` alone; a deliberate
change to any of them must update it and say why.
"""

import hashlib
from fractions import Fraction

from helpers import seeded_weights
from qiso import fileio
from qiso.cli import CLAIMS, main

GOLDEN = "c15a8396cd719ee173f2c9c9c01b12a829fcdea813839ff3f61f345d19e50634"

# (name, generate arguments, vertex count, is a tree); every n is at most 60.
INPUTS = [
    ("t12", ["random-tree", "--n", "12", "--seed", "1"], 12, True),
    ("t25", ["random-tree", "--n", "25", "--seed", "2"], 25, True),
    ("t40", ["random-tree", "--n", "40", "--seed", "3"], 40, True),
    ("t60", ["random-tree", "--n", "60", "--seed", "4"], 60, True),
    ("g10", ["random-graph", "--n", "10", "--m", "14", "--seed", "5"], 10, False),
    ("g20", ["random-graph", "--n", "20", "--m", "30", "--seed", "6"], 20, False),
    ("g35", ["random-graph", "--n", "35", "--m", "45", "--seed", "7"], 35, False),
    ("g50", ["random-graph", "--n", "50", "--m", "120", "--seed", "8"], 50, False),
    ("path2", ["path", "--n", "2"], 2, True),
    ("star6", ["star", "--n", "6"], 6, True),
]
METHODS = ("mis", "collapse", "collapse-modified", "outward")
MIS_CLAIMS = "q1,q2,ecc-transfer,mis-bounds,shift-bounds"


def _battery(name, family, n, tree, seed):
    """Every command run on one input, as argv lists, in order."""
    el = f"{name}.el"
    yield ["generate", *family, "-o", el]
    for method in METHODS:
        yield ["simplify", el, "--method", method, "-o", f"{name}.{method}"]
    if tree:
        yield ["simplify", el, "--method", "outward", "--root", str(n - 1),
               "-o", f"{name}.outward-last"]
        yield ["simplify", el, "--method", "outward", "--all-roots",
               "-o", f"{name}.all-roots"]
    partition = f"{name}.{'outward' if tree else 'collapse-modified'}.partition.txt"
    weights = f"{name}.weights.txt"
    fileio.write_weights(
        [Fraction(w, 1 + v % 3) for v, w in enumerate(seeded_weights(seed, n))], weights
    )
    yield ["analyze", el, "-o", f"{name}.analyze.json"]
    yield ["analyze", el, "--partition", f"{name}.collapse.partition.txt",
           "--weights", weights, "-o", f"{name}.analyze-pw.json"]
    yield ["verify", el, "--partition", partition, "--claims", ",".join(CLAIMS),
           "-o", f"{name}.verify-partition.json"]
    yield ["verify", el, "--mapping", f"{name}.mis.mapping.txt", "--claims", MIS_CLAIMS,
           "-o", f"{name}.verify-mapping.json"]
    yield ["verify", el, "--claims", MIS_CLAIMS, "-o", f"{name}.verify-greedy.json"]
    yield ["verify", el, "--claims", "tree-retention", "-o", f"{name}.verify-bad.json"]


def test_reports_match_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for seed, (name, family, n, tree) in enumerate(INPUTS):
        for argv in _battery(name, family, n, tree, seed):
            code = main(argv)
            captured = capsys.readouterr()
            digest.update(repr((argv, code, captured.out, captured.err)).encode())
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN
