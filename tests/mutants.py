"""Mutants of ``src/qiso`` that the tests must catch, and their runner.

Each entry of :data:`MUTANTS` is data: a file under ``src/qiso``, an
exact old text, its replacement, and the ids of tests that must fail once
the replacement is made. For each entry the runner copies the repository,
without ``.git``, to a temporary directory and makes the replacement
there. An old text that does not occur exactly once makes the entry
stale, and the run fails. The entry's tests then run in the copy, and
each of them must fail. They first run once in an unchanged copy, where
each must pass, so that a failure shows the mutant and nothing else.

Run it with pytest and the package's dependencies installed::

    python tests/mutants.py

It exits 0 when every entry is caught, else 1. A code change that moves
an old text updates its entry; one that replaces a kernel adds entries
for its fast path. The file is not a ``test_*.py`` module, so the tier-1
suite does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/qiso
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # The six partition constructions build their partitions unchecked.
    Mutant(
        "trusted-members-descending",
        "partition.py",
        "blocks[b].append(v)",
        "blocks[b].insert(0, v)",
        (
            "tests/test_partition.py::TestTrustedQuotient::test_equals_validated_build[collapse]",
            "tests/test_partition.py::TestCollapseBasic::test_path6_pairs",
        ),
    ),
    Mutant(
        "singleton-blocks-reversed",
        "partition.py",
        "_trusted_partition(g, range(g.vertex_count), g.vertex_count)",
        "_trusted_partition(g, range(g.vertex_count - 1, -1, -1), g.vertex_count)",
        (
            "tests/test_partition.py::TestQuotient::test_singleton_blocks_reproduce_graph",
            "tests/test_weighted.py::TestPartitionTree::test_singleton_blocks",
        ),
    ),
    Mutant(
        "collapse-extra-empty-block",
        "partition.py",
        "_trusted_partition(g, owner, len(picks))",
        "_trusted_partition(g, owner, len(picks) + 1)",
        (
            "tests/test_partition.py::TestTrustedQuotient::test_equals_validated_build[collapse]",
            "tests/test_partition.py::TestCollapseBasic::test_path6_pairs",
        ),
    ),
    Mutant(
        "collapse-modified-live-anchor",
        "partition.py",
        "block_of[w] = anchored[min(u for u in g.adjacency[w] if anchored[u] >= 0)]",
        "block_of[w] = block_of[min(u for u in g.adjacency[w] if block_of[u] >= 0)]",
        (
            "tests/test_partition.py::TestCollapseModified::test_matches_restart_scan_on_seeded_graphs",
        ),
    ),
    Mutant(
        "outward-heads-reversed",
        "contraction.py",
        "[index[h] for h in head]",
        "[len(heads) - 1 - index[h] for h in head]",
        (
            "tests/test_contraction.py::TestOutwardContraction::test_path5_rooted_at_end",
            "tests/test_contraction.py::TestAllRoots::test_outward_blocks_match_outward_contraction",
        ),
    ),
    Mutant(
        "composition-runs-reversed",
        "contraction.py",
        "[i for i, size in enumerate(sizes) for _ in range(size)]",
        "[i for i, size in enumerate(reversed(sizes)) for _ in range(size)]",
        (
            "tests/test_contraction.py::TestCompositionShift::test_blocks_are_the_parts_in_order",
        ),
    ),
    Mutant(
        "random-partition-merges-two-components",
        "generators.py",
        "        k += 1\n",
        "        k += s > 0\n",
        (
            "tests/test_partition.py::TestTrustedQuotient::test_equals_validated_build[random]",
        ),
    ),
    # The pair dispatcher's tree test.
    Mutant(
        "crossing-count-at-least",
        "quasi.py",
        "if w.count(1 - stretch) == target.edge_count:",
        "if w.count(1 - stretch) >= target.edge_count:",
        (
            "tests/test_quasi.py::TestTreeQuotient::test_predicate_matches_quotient_construction",
        ),
    ),
    Mutant(
        "root-weight-unset",
        "quasi.py",
        "        w[0] = 1\n",
        "",
        (
            "tests/test_quasi.py::TestTreeQuotient::test_matches_oracles[outward]",
            "tests/test_quasi.py::TestTreeQuotient::test_row_maxima_branches_agree[outward]",
        ),
    ),
    # The tree count of Partition: n - k edges inside blocks, the root,
    # which has no parent edge, left out.
    Mutant(
        "tree-count-one-short",
        "partition.py",
        "inside == n - len(cleaned)",
        "inside >= n - len(cleaned) - 1",
        (
            "tests/test_partition.py::TestPartitionValidation::test_rejects_disconnected_block",
            "tests/test_partition.py::TestPartitionValidation::"
            "test_tree_count_matches_per_block_oracle",
        ),
    ),
    Mutant(
        "tree-count-root-included",
        "partition.py",
        "block_of[1:], map(block_of.__getitem__, parent[1:])",
        "block_of, map(block_of.__getitem__, parent)",
        (
            "tests/test_partition.py::TestPartitionValidation::"
            "test_tree_count_matches_per_block_oracle",
        ),
    ),
    # The independent-set checks.
    Mutant(
        "maximality-negated",
        "mis.py",
        "members.isdisjoint(g.adjacency[v])",
        "not members.isdisjoint(g.adjacency[v])",
        (
            "tests/test_mis.py::TestGreedy::test_non_maximal_set_names_its_first_free_vertex",
            "tests/test_mis.py::TestDerivedGraph::test_path5",
        ),
    ),
    # The tree kernel: each row its parent's plus 1, minus 2 on its subtree.
    Mutant(
        "tree-subtree-one-short",
        "graph.py",
        "row[pre[i : i + size[v]]] -= 2",
        "row[pre[i : i + size[v] - 1]] -= 2",
        ("tests/test_quasi.py::TestDistanceMatrix::test_tree_kernel_matches_floyd_warshall",),
    ),
    # The block tables of quasi._block_maxima.
    Mutant(
        "block-slot-at-least",
        "quasi.py",
        "sizes > j",
        "sizes >= j",
        (
            "tests/test_quasi.py::TestTreeQuotient::test_predicate_matches_quotient_construction",
        ),
    ),
    Mutant(
        "block-slots-skipped",
        "quasi.py",
        "for j in range(1, sizes[0]):",
        "for j in range(1, 1):",
        (
            "tests/test_quasi.py::TestTreeQuotient::test_predicate_matches_quotient_construction",
        ),
    ),
    # The bit-parallel search and the whole-file readers.
    Mutant(
        "word-index-65",
        "graph.py",
        "frontier[sources, bit // 64]",
        "frontier[sources, bit // 65]",
        (
            "tests/test_quasi.py::TestDistanceMatrix::test_bfs_kernel_matches_floyd_warshall[65]",
            "tests/test_mis.py::TestDerivedGraph::test_equals_validated_build",
        ),
    ),
    Mutant(
        "within-one-level-short",
        "graph.py",
        "islice(_bfs_levels(*_csr(g), roots), radius)",
        "islice(_bfs_levels(*_csr(g), roots), radius - 1)",
        (
            "tests/test_mis.py::TestDerivedGraph::test_equals_validated_build",
            "tests/test_mis.py::TestDerivedGraph::test_derived_connected_on_ensemble",
        ),
    ),
    # The canonical pass. Each entry is caught by the example of the reader
    # differential named above it.
    # b"3 2\n0 1\n12": a last line of one field, read as a pair.
    Mutant(
        "canonical-final-newline-unchecked",
        "fileio.py",
        'not data.endswith(b"\\n") or ',
        "",
        (
            "tests/test_fileio_cli.py::TestWholeFilePasses::test_readers_match_references",
        ),
    ),
    # b"3 2\n0 1 1\n2\n": three fields, then one, read as two pairs.
    Mutant(
        "canonical-separators-unchecked",
        "fileio.py",
        'seps == b" \\n" * (len(seps) // 2)',
        "True",
        (
            "tests/test_fileio_cli.py::TestWholeFilePasses::test_readers_match_references",
        ),
    ),
    # b"3 2\n0 01\n1 2\n": JSON refuses the leading zero, and the error
    # escapes where the line walk reads 1.
    Mutant(
        "canonical-json-errors-escape",
        "fileio.py",
        "except ValueError:",
        "except TypeError:",
        (
            "tests/test_fileio_cli.py::TestWholeFilePasses::test_readers_match_references",
        ),
    ),
    # b"0 1\n\n2\n": a blank line, parsed as an empty block.
    Mutant(
        "partition-blank-line-parsed",
        "fileio.py",
        ' and b"\\n\\n" not in data',
        "",
        (
            "tests/test_fileio_cli.py::TestWholeFilePasses::test_readers_match_references",
        ),
    ),
    # b"\n": a leading blank line, parsed as an empty block.
    Mutant(
        "partition-leading-newline-parsed",
        "fileio.py",
        ' and not data.startswith(b"\\n")',
        "",
        (
            "tests/test_fileio_cli.py::TestWholeFilePasses::test_readers_match_references",
        ),
    ),
    # b"0 1\n\t\n2\n": a line of whitespace, which JSON reads as an empty block.
    Mutant(
        "partition-any-separator",
        "fileio.py",
        'not seps.translate(None, b" \\n")',
        "True",
        (
            "tests/test_fileio_cli.py::TestWholeFilePasses::test_readers_match_references",
        ),
    ),
    # b"0 2 1\n": ids out of order, which Partition would sort.
    Mutant(
        "partition-rows-unordered",
        "fileio.py",
        "blocks is None or not all(all(map(operator.lt, r, r[1:])) for r in blocks)",
        "blocks is None",
        (
            "tests/test_fileio_cli.py::TestWholeFilePasses::test_readers_match_references",
        ),
    ),
    Mutant(
        "weights-order-unchecked",
        "fileio.py",
        "ints[0::2] == list(range(g.vertex_count))",
        "len(ints) == 2 * g.vertex_count",
        (
            "tests/test_fileio_cli.py::TestWholeFilePasses::test_readers_match_references",
        ),
    ),
    # Every integer read is ASCII 0-9 alone; pytest escapes the other
    # scripts' digits in these ids.
    Mutant(
        "digits-any-script",
        "fileio.py",
        "return token.isascii() and token.isdigit()",
        "return token.isdigit()",
        tuple(
            f"tests/test_fileio_cli.py::Test{kind}Format::test_only_ascii_digits[{token}]"
            for kind, token in [
                ("EdgeList", "\\u0662"),
                ("EdgeList", "\\uff13"),
                ("Partition", "\\u0662"),
                ("Partition", "\\uff13"),
                ("Weights", "\\u0662"),
                ("Weights", "\\uff13"),
                ("Weights", "\\u0661/\\u0662"),
                ("Mapping", "\\u0662"),
                ("Mapping", "\\uff13"),
            ]
        ),
    ),
    # numpy loads where qiso first computes with it, in the all-pairs
    # layer: not at import, and not to read a file.
    Mutant(
        "numpy-at-import",
        "graph.py",
        "from collections import deque\n",
        "import numpy\nfrom collections import deque\n",
        (
            "tests/test_fileio_cli.py::TestImports::"
            "test_generate_help_and_usage_errors_load_no_numpy",
        ),
    ),
    Mutant(
        "blas-pool-default-dropped",
        "cli.py",
        '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
        "",
        ("tests/test_fileio_cli.py::TestEntry::test_blas_pool_defaults_to_one_thread[None-1]",),
    ),
    Mutant(
        "numpy-in-reader",
        "fileio.py",
        'with open(path, "rb") as handle:',
        'import numpy\n\n    with open(path, "rb") as handle:',
        ("tests/test_fileio_cli.py::TestImports::test_tree_commands_load_no_numpy",),
    ),
)

# pytest -rA ends on one line per test: its outcome, then its id.
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.M)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT, dest, ignore=ignore)


def _outcomes(tree: Path, tests) -> tuple[dict[str, str], str]:
    """Each test's outcome in ``tree``, and pytest's output.

    A run that outlasts two minutes, as a mutant that loops might, reports
    no outcome.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return {}, "timed out"
    return {test: outcome for outcome, test in _OUTCOME.findall(run.stdout)}, run.stdout


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "unchanged"
        _copy(base)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        outcomes, output = _outcomes(base, tests)
        broken = [t for t in tests if outcomes.get(t) != "PASSED"]
        if broken:
            print(output)
            print("tests that do not pass unchanged:", *broken, sep="\n  ")
            return 1
        for m in MUTANTS:
            start = time.perf_counter()
            tree = Path(tmp) / m.name
            _copy(tree)
            path = tree / "src" / "qiso" / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                verdict = f"STALE: the old text occurs {text.count(m.old)} times in {m.path}"
            else:
                path.write_text(text.replace(m.old, m.new))
                outcomes, output = _outcomes(tree, m.tests)
                missed = [t for t in m.tests if outcomes.get(t) != "FAILED"]
                verdict = "SURVIVED: " + " ".join(missed) if missed or not m.tests else "caught"
            shutil.rmtree(tree)
            failed += verdict != "caught"
            print(f"{m.name:40} {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
