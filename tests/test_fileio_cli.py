import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
import qiso
from helpers import seeded_graph, seeded_tree
from passes import CallCounter, PassCounter
from qiso import cli, contraction, fileio
from qiso.cli import CLAIMS, main
from qiso.errors import FormatError, QisoError
from qiso.generators import (
    cycle_graph,
    non_uniecc_chordal,
    path_graph,
    random_connected_graph,
    random_partition,
    random_tree,
)
from qiso.graph import Graph, diameter_path
from qiso.mis import greedy_mis, mis_derived
from qiso.partition import (
    collapse_basic,
    collapse_modified,
    sharpness_report,
    singleton_partition,
)
from qiso.quasi import center_shift


# Malformed edge lists and the error each must report: the first bad
# line, numbered by "\n" breaks alone ("\r\n" ends a line, "\u2028"
# inside one is whitespace).
_BAD_EDGE_LISTS = {
    b"": "empty file$",
    b"3\n0 1\n1 2\n": "^line 1: expected 2 fields, got 1$",
    b"3 2\n0 1\n": "header says 2 edges, found 1$",
    b"3 1\n0 1\n1 2\n": "1 edges cannot connect 3 vertices$",
    b"3 2\n1 0\n1 2\n": "^line 2: edges must satisfy u < v, got 1 0$",
    b"3 2\n0 x\n1 2\n": "^line 2: invalid literal for int",
    b"3 1\n0 1\n": "1 edges cannot connect 3 vertices$",
    b"\xff 3 2\n": "not UTF-8 text",
    b"3 3\r\n0\xe2\x80\xa81\r\n\r\n1 2\r\n1 x\r\n": "^line 5: invalid literal for int",
}


# Tokens that int() alone would take, and a reader must not: every
# integer is ASCII digits alone.
_NOT_ASCII_DIGITS = ["1_0", "+1", "\u0662", "\uff13"]


def assert_rejected(tmp_path, capsys, text, read, argv, lineno):
    """``text`` fails ``read`` at ``lineno`` on its first bad token, and
    exits 2 through the CLI command ``argv``."""
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    bad = next(f for f in text.split() if not (f.isascii() and f.replace("/", "").isdigit()))
    with pytest.raises(FormatError, match=f"^line {lineno}: .*{re.escape(repr(bad))}"):
        read(path)
    gfile = tmp_path / "g.el"
    fileio.write_edge_list(path_graph(3), gfile)
    argv = [a.format(graph=gfile, bad=path, out=tmp_path / "r.json") for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: line {lineno}: ")


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        for seed in range(10):
            g = seeded_graph(seed)
            path = tmp_path / f"g{seed}.el"
            fileio.write_edge_list(g, path)
            assert fileio.read_edge_list(path) == g

    def test_canonical_bytes_are_stable(self, tmp_path):
        g = seeded_graph(4)
        a = tmp_path / "a.el"
        b = tmp_path / "b.el"
        fileio.write_edge_list(g, a)
        fileio.write_edge_list(fileio.read_edge_list(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.el"
        path.write_text("# a path\n\n3 2\n0 1\n\n# tail\n1 2\n")
        assert fileio.read_edge_list(path) == path_graph(3)

    @pytest.mark.parametrize("text", list(_BAD_EDGE_LISTS))
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.el"
        path.write_bytes(text)
        with pytest.raises(FormatError, match=_BAD_EDGE_LISTS[text]):
            fileio.read_edge_list(path)

    @pytest.mark.parametrize("token", _NOT_ASCII_DIGITS)
    def test_only_ascii_digits(self, tmp_path, capsys, token):
        for text, lineno in [(f"3 2\n0 1\n1 {token}\n", 3), (f"{token} 2\n0 1\n1 2\n", 1)]:
            argv = ["analyze", "{bad}", "-o", "{out}"]
            assert_rejected(tmp_path, capsys, text, fileio.read_edge_list, argv, lineno)

    def test_repeated_edge_exits_two(self, tmp_path, capsys):
        path = tmp_path / "dup.el"
        path.write_text("3 2\n0 1\n0 1\n")
        out = tmp_path / "r.json"
        assert main(["analyze", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: duplicate edge (0, 1)\n"
        assert not out.exists()


class TestPartitionFormat:
    def test_round_trip(self, tmp_path):
        g = seeded_graph(7)
        p = collapse_basic(g)
        path = tmp_path / "p.txt"
        fileio.write_partition(p, path)
        assert fileio.read_partition(path, g).blocks == p.blocks

    def test_rejects_unordered_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1 0\n2\n")
        with pytest.raises(FormatError):
            fileio.read_partition(path, path_graph(3))

    @pytest.mark.parametrize("token", _NOT_ASCII_DIGITS + ["1_0 1_1"])
    def test_only_ascii_digits(self, tmp_path, capsys, token):
        read = lambda p: fileio.read_partition(p, path_graph(3))  # noqa: E731
        argv = ["analyze", "{graph}", "--partition", "{bad}", "-o", "{out}"]
        assert_rejected(tmp_path, capsys, f"0\n1 {token}\n", read, argv, 2)


class TestWeightsFormat:
    def test_round_trip(self, tmp_path):
        weights = [1, Fraction(7, 2), 4]
        path = tmp_path / "w.txt"
        fileio.write_weights(weights, path)
        assert fileio.read_weights(path, path_graph(3)) == weights

    @pytest.mark.parametrize(
        "text",
        [
            b"0 1\n",
            b"0 1\n0 2\n1 1\n2 1\n",
            b"0 1.5\n1 1\n2 1\n",
            b"9 1\n",
            b"0 1\n1 1/0\n2 1\n",
            b"0 1\n1 \xff\n2 1\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "w.txt"
        path.write_bytes(text)
        with pytest.raises(FormatError):
            fileio.read_weights(path, path_graph(3))

    @pytest.mark.parametrize("token", _NOT_ASCII_DIGITS + ["\u0661/\u0662"])
    def test_only_ascii_digits(self, tmp_path, capsys, token):
        read = lambda p: fileio.read_weights(p, path_graph(3))  # noqa: E731
        argv = ["analyze", "{graph}", "--weights", "{bad}", "-o", "{out}"]
        for text in (f"0 1\n1 {token}\n2 1\n", f"0 1\n{token} 1\n2 1\n"):
            assert_rejected(tmp_path, capsys, text, read, argv, 2)


class TestMappingFormat:
    def test_round_trip(self, tmp_path):
        g = path_graph(5)
        result = mis_derived(g, greedy_mis(g))
        image = [result.mis[i] for i in result.mapping.image]
        path = tmp_path / "m.txt"
        fileio.write_mapping(image, path)
        assert fileio.read_mapping(path, g) == image

    def test_rejects_partial_mapping(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("0 0\n1 0\n")
        with pytest.raises(FormatError):
            fileio.read_mapping(path, path_graph(3))

    @pytest.mark.parametrize("token", _NOT_ASCII_DIGITS)
    def test_only_ascii_digits(self, tmp_path, capsys, token):
        read = lambda p: fileio.read_mapping(p, path_graph(3))  # noqa: E731
        argv = ["verify", "{graph}", "--mapping", "{bad}", "--claims", "q1", "-o", "{out}"]
        for text in (f"0 0\n1 {token}\n2 2\n", f"0 0\n{token} 0\n2 2\n"):
            assert_rejected(tmp_path, capsys, text, read, argv, 2)


# Tokens that make up well-formed files, plus the ones that break them.
_TOKENS = [b"0", b"1", b"2", b"3", b"9" * 25, b"-1", b"1/0", b"2/3", b"x", b"#"]
_TOKENS += [b" ", b"\n", b"\r", b"\t", b"\xff", b"\xc3", b"\x00"]


class TestReadersFuzz:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.one_of(
            st.binary(max_size=40),
            st.lists(st.sampled_from(_TOKENS), max_size=40).map(b"".join),
        )
    )
    def test_any_bytes_give_an_object_or_a_qiso_error(self, tmp_path, data):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        g = path_graph(3)
        readers = [
            fileio.read_edge_list,
            lambda p: fileio.read_partition(p, g),
            lambda p: fileio.read_weights(p, g),
            lambda p: fileio.read_mapping(p, g),
        ]
        for read in readers:
            try:
                read(path)
            except QisoError:
                pass


class TestReports:
    def test_fraction_strings(self):
        assert fileio.fraction_str(Fraction(1, 3)) == "1/3"
        assert fileio.fraction_str(4) == "4/1"
        assert fileio.weight_str(Fraction(8, 2)) == "4"

    def test_key_order_is_fixed(self):
        report = fileio.build_report(input="x", radius=1)
        assert list(report) == list(fileio._REPORT_KEYS)
        assert report["checks"] == {}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            fileio.build_report(bogus=1)

    def test_deterministic_bytes(self, tmp_path):
        report = fileio.build_report(input="x", checks={"a": fileio.check_entry(True)})
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        fileio.write_report(report, p1)
        fileio.write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_renames_nothing(self, tmp_path):
        # Every temp file is written before the first rename, so a text
        # that cannot be encoded leaves the earlier file as it was.
        first, second = tmp_path / "a.el", tmp_path / "b.txt"
        first.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            fileio._atomic_write([(first, "new\n"), (second, "\udc80")])
        assert first.read_text() == "old\n"
        assert sorted(tmp_path.iterdir()) == [first]


class TestCliGenerate:
    def test_families(self, tmp_path):
        out = tmp_path / "g.el"
        for argv in (
            ["generate", "path", "--n", "5"],
            ["generate", "star", "--n", "7"],
            ["generate", "complete", "--n", "4"],
            ["generate", "random-tree", "--n", "30", "--seed", "2"],
            ["generate", "random-graph", "--n", "10", "--m", "20", "--seed", "3"],
            ["generate", "chordal-counterexample"],
        ):
            assert main(argv + ["-o", str(out)]) == 0
            fileio.read_edge_list(out)

    def test_chordal_file_matches_library(self, tmp_path):
        out = tmp_path / "c.el"
        assert main(["generate", "chordal-counterexample", "-o", str(out)]) == 0
        assert fileio.read_edge_list(out) == non_uniecc_chordal()

    def test_shift_family_writes_partition(self, tmp_path):
        out = tmp_path / "fam.el"
        assert main(["generate", "shift-family", "--t", "3", "-o", str(out)]) == 0
        g = fileio.read_edge_list(out)
        p = fileio.read_partition(tmp_path / "fam.partition.txt", g)
        assert len(p.blocks) == 7

    def test_missing_parameter(self, tmp_path):
        assert main(["generate", "path", "-o", str(tmp_path / "x.el")]) == 2

    def test_bad_family_usage(self, tmp_path):
        assert main(["generate", "moebius", "-o", str(tmp_path / "x.el")]) == 2

    def test_shift_family_zero_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "fam.el"
        assert main(["generate", "shift-family", "--t", "0", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    # Per family: the generator cli calls, flags giving just over 10^6
    # edges, and flags giving exactly 10^6 or the largest count below it.
    _BOUNDS = {
        "path": ("path_graph", ["--n", "1000002"], ["--n", "1000001"]),
        "star": ("star_graph", ["--n", "1000002"], ["--n", "1000001"]),
        "complete": ("complete_graph", ["--n", "1415"], ["--n", "1414"]),
        "random-tree": ("random_tree", ["--n", "1000002"], ["--n", "1000001"]),
        "random-graph": (
            "random_connected_graph",
            ["--n", "1415", "--m", "1000001"],
            ["--n", "1415", "--m", "1000000"],
        ),
        "shift-family": ("unbounded_shift_family", ["--t", "250001"], ["--t", "250000"]),
    }

    @pytest.mark.parametrize("family", list(_BOUNDS))
    def test_edge_bound_precedes_generator(self, tmp_path, monkeypatch, capsys, family):
        generator, above, at = self._BOUNDS[family]

        def unreached(*args):
            raise RuntimeError(f"{generator} ran")

        monkeypatch.setattr(cli, generator, unreached)
        out = tmp_path / "g.el"
        assert main(["generate", family, *above, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []
        # At the bound the generator runs (and here raises).
        assert main(["generate", family, *at, "-o", str(out)]) == 3
        assert f"{generator} ran" in capsys.readouterr().err

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_output_mode_follows_umask(self, tmp_path, umask):
        out = tmp_path / "p5.el"
        old = os.umask(umask)
        try:
            assert main(["generate", "path", "--n", "5", "-o", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_write_leaves_no_file(self, tmp_path, capsys):
        # The partition cannot replace a directory, so the graph is not kept.
        (tmp_path / "fam.partition.txt").mkdir()
        out = tmp_path / "fam.el"
        assert main(["generate", "shift-family", "--t", "3", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["fam.partition.txt"]
        assert list((tmp_path / "fam.partition.txt").iterdir()) == []

    def test_seeded_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.el"
        b = tmp_path / "b.el"
        for out in (a, b):
            assert (
                main(
                    ["generate", "random-tree", "--n", "100", "--seed", "7", "-o", str(out)]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()


_NOT_OUTWARD = ("mis", "collapse", "collapse-modified")


class TestCliSimplify:
    @pytest.fixture()
    def tree_file(self, tmp_path):
        out = tmp_path / "t.el"
        main(["generate", "random-tree", "--n", "25", "--seed", "11", "-o", str(out)])
        return out

    def test_outward_writes_all_outputs(self, tmp_path, tree_file):
        prefix = tmp_path / "out"
        assert main(
            ["simplify", str(tree_file), "--method", "outward", "-o", str(prefix)]
        ) == 0
        g = fileio.read_edge_list(tree_file)
        quotient = fileio.read_edge_list(f"{prefix}.quotient.el")
        partition = fileio.read_partition(f"{prefix}.partition.txt", g)
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert quotient.vertex_count == len(partition.blocks)
        assert report["center_shift"] == 0
        assert report["checks"]["q1"]["ok"] and report["checks"]["q2"]["ok"]

    def test_outward_all_roots(self, tmp_path, tree_file):
        prefix = tmp_path / "all"
        assert main(
            [
                "simplify",
                str(tree_file),
                "--method",
                "outward",
                "--all-roots",
                "-o",
                str(prefix),
            ]
        ) == 0
        report = json.loads((tmp_path / "all.report.json").read_text())
        assert report["checks"]["center-shift-zero-all-roots"]["ok"]

    def test_all_roots_witness_matches_center_shift(self, tmp_path, monkeypatch):
        # Outward contraction never moves a tree's center, so each colour's
        # roots get a random head rule instead, which often does.
        center_kept = contraction._center_kept
        witnesses = set()
        for seed in range(30):
            t = seeded_tree(seed, min_n=3, max_n=30)
            rule_of, blocks = oracles.colour_rules(t, seed)
            monkeypatch.setattr(
                contraction, "_center_kept", lambda t, w: center_kept(t, rule_of[tuple(w)])
            )
            gfile = tmp_path / f"t{seed}.el"
            fileio.write_edge_list(t, gfile)
            prefix = tmp_path / f"s{seed}"
            argv = ["simplify", str(gfile), "--method", "outward", "--all-roots"]
            assert main(argv + ["-o", str(prefix)]) == 0
            report = json.loads((tmp_path / f"s{seed}.report.json").read_text())
            first_bad = oracles.first_center_shifting_root(t, blocks)
            assert report["checks"]["center-shift-zero-all-roots"] == {
                "ok": first_bad is None,
                "witness": first_bad,
            }
            witnesses.add(first_bad is None)
        assert witnesses == {True, False}

    @pytest.mark.parametrize("flags", [[], ["--root", "4"]], ids=["default-root", "root-4"])
    def test_all_roots_searches_blocks_once(self, tmp_path, monkeypatch, flags):
        calls = []
        outward_blocks = contraction._outward_blocks

        def counted(t, root):
            calls.append(root)
            return outward_blocks(t, root)

        monkeypatch.setattr(contraction, "_outward_blocks", counted)
        gfile = tmp_path / "t.el"
        fileio.write_edge_list(seeded_tree(3, min_n=20, max_n=30), gfile)
        argv = ["simplify", str(gfile), "--method", "outward", *flags, "--all-roots"]
        assert main(argv + ["-o", str(tmp_path / "s")]) == 0
        assert calls == [int(flags[1]) if flags else 0]

    def test_all_roots_contracts_only_the_given_root(self, tmp_path, monkeypatch):
        roots = []
        original = contraction.outward_contraction

        def counted(g, root):
            roots.append(root)
            return original(g, root)

        monkeypatch.setattr(cli, "outward_contraction", counted)
        monkeypatch.setattr(contraction, "outward_contraction", counted)
        gfile = tmp_path / "t.el"
        fileio.write_edge_list(seeded_tree(3, min_n=20, max_n=30), gfile)
        argv = ["simplify", str(gfile), "--method", "outward", "--root", "4", "--all-roots"]
        assert main(argv + ["-o", str(tmp_path / "s")]) == 0
        assert roots == [4]

    def test_outward_rejects_non_tree(self, tmp_path):
        gfile = tmp_path / "g.el"
        main(["generate", "random-graph", "--n", "8", "--m", "12", "-o", str(gfile)])
        assert main(
            ["simplify", str(gfile), "--method", "outward", "-o", str(tmp_path / "x")]
        ) == 2

    @pytest.mark.parametrize(
        "g, message",
        [
            (path_graph(3), "vertex 9 outside 0..2"),
            # The input must be a tree before its root is checked.
            (cycle_graph(4), "expected a tree, got n=4, m=4"),
        ],
        ids=["path", "cycle"],
    )
    def test_bad_root_writes_nothing(self, tmp_path, capsys, g, message):
        gfile = tmp_path / "g.el"
        fileio.write_edge_list(g, gfile)
        outdir = tmp_path / "out"
        outdir.mkdir()
        argv = ["simplify", str(gfile), "--method", "outward", "--root", "9"]
        assert main(argv + ["-o", str(outdir / "s")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(outdir.iterdir()) == []

    @staticmethod
    def _simplify_guarded(tmp_path, monkeypatch, method, g):
        """Exit code of ``simplify`` on a graph above the size guard.

        Building any all-pairs matrix, by either kernel, raises; the
        output directory must stay empty.
        """

        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built before the size guard")

        gfile = tmp_path / "g.el"
        fileio.write_edge_list(g, gfile)
        outdir = tmp_path / "out"
        outdir.mkdir()
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        code = main(["simplify", str(gfile), "--method", method, "-o", str(outdir / "s")])
        assert list(outdir.iterdir()) == []
        return code

    def test_size_guard_writes_nothing(self, tmp_path, monkeypatch):
        g = cycle_graph(2001)
        assert self._simplify_guarded(tmp_path, monkeypatch, "collapse", g) == 2

    def test_mis_size_guard_writes_nothing(self, tmp_path, monkeypatch):
        g = path_graph(2001)
        assert self._simplify_guarded(tmp_path, monkeypatch, "mis", g) == 2

    @pytest.mark.parametrize(
        "method, flags",
        [pytest.param(m, ["--all-roots"], id=m) for m in _NOT_OUTWARD]
        + [pytest.param(m, ["--root", "0"], id=f"root-{m}") for m in _NOT_OUTWARD],
    )
    def test_all_roots_needs_outward(self, tmp_path, monkeypatch, capsys, method, flags):
        def unread(*args, **kwargs):
            raise AssertionError("input read before the usage check")

        monkeypatch.setattr(fileio, "read_edge_list", unread)
        outdir = tmp_path / "out"
        outdir.mkdir()
        argv = ["simplify", "t.el", "--method", method, *flags]
        assert main(argv + ["-o", str(outdir / "s")]) == 2
        assert capsys.readouterr().err == f"error: {flags[0]} needs --method outward\n"
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["quotient.el", "partition.txt", "report.json"])
    def test_failed_write_leaves_no_output(self, tmp_path, tree_file, capsys, blocked):
        # One output path is a directory: the files renamed before it and
        # the temp files after it are all removed.
        outdir = tmp_path / "out"
        (outdir / f"s.{blocked}").mkdir(parents=True)
        argv = ["simplify", str(tree_file), "--method", "outward"]
        assert main(argv + ["-o", str(outdir / "s")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in outdir.iterdir()] == [f"s.{blocked}"]
        assert list((outdir / f"s.{blocked}").iterdir()) == []

    def test_mis_writes_mapping(self, tmp_path):
        gfile = tmp_path / "star.el"
        main(["generate", "star", "--n", "7", "-o", str(gfile)])
        prefix = tmp_path / "m"
        assert main(["simplify", str(gfile), "--method", "mis", "-o", str(prefix)]) == 0
        g = fileio.read_edge_list(gfile)
        image = fileio.read_mapping(f"{prefix}.mapping.txt", g)
        assert set(image) == {0}
        report = json.loads((tmp_path / "m.report.json").read_text())
        assert report["compression_ratio"] == "1/7"
        assert report["checks"]["mis-bounds"]["ok"]

    def test_collapse_methods(self, tmp_path, tree_file):
        for method in ("collapse", "collapse-modified"):
            prefix = tmp_path / method
            assert main(
                ["simplify", str(tree_file), "--method", method, "-o", str(prefix)]
            ) == 0
            report = json.loads((tmp_path / f"{method}.report.json").read_text())
            assert report["method"] == method
            assert report["checks"]["q1"]["ok"]

    def test_reruns_are_byte_identical(self, tmp_path, tree_file):
        outs = []
        for tag in ("r1", "r2"):
            prefix = tmp_path / tag
            assert main(
                ["simplify", str(tree_file), "--method", "outward", "-o", str(prefix)]
            ) == 0
            outs.append((tmp_path / f"{tag}.report.json").read_bytes())
        assert outs[0] == outs[1]


class TestCliAnalyze:
    def test_metrics_only(self, tmp_path):
        gfile = tmp_path / "p.el"
        main(["generate", "path", "--n", "5", "-o", str(gfile)])
        out = tmp_path / "rep.json"
        assert main(["analyze", str(gfile), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["radius"] == 2 and report["center"] == [2]
        assert report["constants"] is None
        assert report["median"] == [2]

    def test_with_partition_and_weights(self, tmp_path):
        gfile = tmp_path / "t.el"
        main(["generate", "random-tree", "--n", "20", "--seed", "4", "-o", str(gfile)])
        g = fileio.read_edge_list(gfile)
        pfile = tmp_path / "p.txt"
        fileio.write_partition(singleton_partition(g), pfile)
        wfile = tmp_path / "w.txt"
        fileio.write_weights([1] * g.vertex_count, wfile)
        out = tmp_path / "rep.json"
        assert main(
            [
                "analyze",
                str(gfile),
                "--partition",
                str(pfile),
                "--weights",
                str(wfile),
                "-o",
                str(out),
            ]
        ) == 0
        report = json.loads(out.read_text())
        assert report["constants"] == {"A": 1, "B": 0, "C": 0}
        assert report["sharpness"] == 0
        assert report["center_shift"] == 0
        assert report["weighted_median"] == report["median"]
        assert report["checks"]["shift-within-two-sided"]["ok"]

    def test_partition_size_guard_runs_first(self, tmp_path, monkeypatch, capsys):
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built before the size guard")

        g = cycle_graph(2001)
        gfile = tmp_path / "c.el"
        fileio.write_edge_list(g, gfile)
        pfile = tmp_path / "p.txt"
        fileio.write_partition(singleton_partition(g), pfile)
        wfile = tmp_path / "w.txt"
        fileio.write_weights([1] * g.vertex_count, wfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "rep.json"
        argv = ["analyze", str(gfile), "--partition", str(pfile), "--weights", str(wfile)]
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: all-pairs search guarded at 2000 vertices, got 2001\n"
        )
        assert not out.exists()

    def test_weights_size_guard_runs_first(self, tmp_path, monkeypatch, capsys):
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built before the size guard")

        g = cycle_graph(2001)
        gfile = tmp_path / "c.el"
        fileio.write_edge_list(g, gfile)
        wfile = tmp_path / "w.txt"
        fileio.write_weights([1] * g.vertex_count, wfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "rep.json"
        assert main(["analyze", str(gfile), "--weights", str(wfile), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: all-pairs search guarded at 2000 vertices, got 2001\n"
        )
        assert not out.exists()

    def test_plain_size_guard_runs_first(self, tmp_path, monkeypatch, capsys):
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built before the size guard")

        gfile = tmp_path / "c.el"
        fileio.write_edge_list(cycle_graph(2001), gfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "rep.json"
        assert main(["analyze", str(gfile), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: all-pairs search guarded at 2000 vertices, got 2001\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_large_tree_needs_no_matrix(self, tmp_path, monkeypatch, weighted):
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built for a tree")

        t = random_tree(3000, 5)
        gfile = tmp_path / "t.el"
        fileio.write_edge_list(t, gfile)
        argv = ["analyze", str(gfile)]
        if weighted:
            wfile = tmp_path / "w.txt"
            fileio.write_weights([1] * t.vertex_count, wfile)
            argv += ["--weights", str(wfile)]
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "rep.json"
        assert main(argv + ["-o", str(out)]) == 0
        report = json.loads(out.read_text())
        path = diameter_path(t)
        diameter = len(path) - 1
        assert report["diameter"] == diameter
        assert report["radius"] == (diameter + 1) // 2
        assert report["center"] == sorted(path[diameter // 2 : (diameter + 3) // 2])
        if weighted:
            assert report["weighted_median"] == report["median"]

    def test_outward_partition_round_trip(self, tmp_path):
        gfile = tmp_path / "t.el"
        main(["generate", "random-tree", "--n", "40", "--seed", "9", "-o", str(gfile)])
        prefix = tmp_path / "simp"
        main(["simplify", str(gfile), "--method", "outward", "-o", str(prefix)])
        out = tmp_path / "rep.json"
        assert main(
            [
                "analyze",
                str(gfile),
                "--partition",
                f"{prefix}.partition.txt",
                "-o",
                str(out),
            ]
        ) == 0
        report = json.loads(out.read_text())
        assert report["center_shift"] == 0
        assert report["sharpness"] <= 2

    def test_inconsistent_inputs(self, tmp_path):
        gfile = tmp_path / "p.el"
        main(["generate", "path", "--n", "5", "-o", str(gfile)])
        pfile = tmp_path / "p.txt"
        pfile.write_text("0 1\n2 3\n")
        assert main(
            ["analyze", str(gfile), "--partition", str(pfile), "-o", str(tmp_path / "r.json")]
        ) == 2


class TestCliVerify:
    def test_all_claims_pass_on_tree_with_outward(self, tmp_path):
        gfile = tmp_path / "t.el"
        main(["generate", "random-tree", "--n", "30", "--seed", "6", "-o", str(gfile)])
        prefix = tmp_path / "s"
        main(["simplify", str(gfile), "--method", "outward", "-o", str(prefix)])
        out = tmp_path / "v.json"
        code = main(
            [
                "verify",
                str(gfile),
                "--partition",
                f"{prefix}.partition.txt",
                "--claims",
                "q1,q2,ecc-transfer,tree-retention,compression,shift-bounds,median-preservation",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert all(entry["ok"] for entry in report["checks"].values())

    @pytest.mark.parametrize("claim", ["tree-retention", "compression", "median-preservation"])
    def test_partition_claim_refused_before_reading(self, tmp_path, monkeypatch, capsys, claim):
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built before the claim check")

        gfile = tmp_path / "c.el"
        fileio.write_edge_list(cycle_graph(50), gfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "v.json"
        argv = ["verify", str(gfile), "--claims", f"q1,{claim}", "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {claim} needs --partition\n"
        assert not out.exists()

    def test_mapping_beside_partition_needs_mis_bounds(self, tmp_path, monkeypatch, capsys):
        # Beside a partition only mis-bounds reads the mapping, so an
        # unread one is refused before any input is read.
        gfile, pfile, mfile = (tmp_path / name for name in ("g.el", "p.txt", "m.txt"))
        g = path_graph(6)
        fileio.write_edge_list(g, gfile)
        fileio.write_partition(collapse_basic(g), pfile)
        mfile.write_text("")
        out = tmp_path / "v.json"
        argv = ["verify", str(gfile), "--partition", str(pfile), "--mapping", str(mfile)]

        def unread(*args, **kwargs):
            raise AssertionError("input read before the usage check")

        monkeypatch.setattr(fileio, "read_edge_list", unread)
        assert main(argv + ["--claims", "q1,q2", "-o", str(out)]) == 2
        message = "error: --mapping with --partition needs the mis-bounds claim\n"
        assert capsys.readouterr().err == message
        assert not out.exists()
        # With mis-bounds claimed the empty mapping is read, and refused.
        monkeypatch.undo()
        assert main(argv + ["--claims", "q1,mis-bounds", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {mfile}: 6 vertices have no image\n"
        assert not out.exists()

    def test_mis_claims_via_mapping_file(self, tmp_path):
        gfile = tmp_path / "g.el"
        main(["generate", "random-graph", "--n", "15", "--m", "25", "-o", str(gfile)])
        prefix = tmp_path / "m"
        main(["simplify", str(gfile), "--method", "mis", "-o", str(prefix)])
        code = main(
            [
                "verify",
                str(gfile),
                "--mapping",
                f"{prefix}.mapping.txt",
                "--claims",
                "mis-bounds,q1,q2",
                "-o",
                str(tmp_path / "v.json"),
            ]
        )
        assert code == 0

    def test_failing_check_exits_one(self, tmp_path):
        # A source violating uniform eccentricity can exceed the shift bound;
        # this frozen instance does, so the claim honestly fails.
        g = random_connected_graph(11, 12, seed=764)
        p = random_partition(g, 5353)
        gfile = tmp_path / "g.el"
        pfile = tmp_path / "p.txt"
        fileio.write_edge_list(g, gfile)
        fileio.write_partition(p, pfile)
        out = tmp_path / "v.json"
        code = main(
            [
                "verify",
                str(gfile),
                "--partition",
                str(pfile),
                "--claims",
                "shift-bounds",
                "-o",
                str(out),
            ]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert not report["checks"]["shift-bounds"]["ok"]

    def test_unknown_claim(self, tmp_path):
        gfile = tmp_path / "p.el"
        main(["generate", "path", "--n", "5", "-o", str(gfile)])
        assert main(
            ["verify", str(gfile), "--claims", "bogus", "-o", str(tmp_path / "v.json")]
        ) == 2

    def test_broken_partition_file(self, tmp_path):
        gfile = tmp_path / "p.el"
        main(["generate", "path", "--n", "5", "-o", str(gfile)])
        pfile = tmp_path / "p.txt"
        pfile.write_text("0 1 2\n3\n")
        assert main(
            [
                "verify",
                str(gfile),
                "--partition",
                str(pfile),
                "--claims",
                "q1",
                "-o",
                str(tmp_path / "v.json"),
            ]
        ) == 2

    def test_disconnected_partition_block(self, tmp_path, capsys):
        gfile = tmp_path / "p.el"
        fileio.write_edge_list(path_graph(6), gfile)
        pfile = tmp_path / "p.txt"
        pfile.write_text("0 1\n2 4\n3 5\n")
        out = tmp_path / "v.json"
        argv = ["verify", str(gfile), "--partition", str(pfile), "--claims", "q1"]
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: block 1 does not induce a connected subgraph\n"
        )
        assert not out.exists()

    def test_shift_bounds_size_guard_runs_first(self, tmp_path, monkeypatch, capsys):
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built before the size guard")

        gfile = tmp_path / "p.el"
        fileio.write_edge_list(path_graph(2001), gfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "v.json"
        argv = ["verify", str(gfile), "--claims", "q1,ecc-transfer,shift-bounds"]
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: all-pairs search guarded at 2000 vertices, got 2001\n"
        )
        assert not out.exists()

    def test_cyclic_size_guard_runs_first(self, tmp_path, monkeypatch, capsys):
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built before the size guard")

        g = cycle_graph(2001)
        gfile = tmp_path / "c.el"
        fileio.write_edge_list(g, gfile)
        pfile = tmp_path / "p.txt"
        fileio.write_partition(singleton_partition(g), pfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "v.json"
        argv = ["verify", str(gfile), "--partition", str(pfile), "--claims", "tree-retention"]
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: all-pairs search guarded at 2000 vertices, got 2001\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--claims", "q1"],
            ["--claims", "ecc-transfer"],
            ["--claims", "q2"],
            ["--partition", "P", "--claims", "mis-bounds"],
        ],
        ids=["q1", "ecc-transfer", "q2", "partition-mis-bounds"],
    )
    def test_mis_claims_meet_size_guard(self, tmp_path, monkeypatch, capsys, extra):
        # An independent-set mapping needs the matrix even on a tree.
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built before the size guard")

        g = path_graph(2001)
        gfile = tmp_path / "p.el"
        fileio.write_edge_list(g, gfile)
        pfile = tmp_path / "p.txt"
        fileio.write_partition(singleton_partition(g), pfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "v.json"
        argv = ["verify", str(gfile)] + [{"P": str(pfile)}.get(a, a) for a in extra]
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: all-pairs search guarded at 2000 vertices, got 2001\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simplify", "G", "--method", "collapse"],
            ["analyze", "G", "--partition", "P"],
            ["verify", "G", "--partition", "P", "--claims", "q2"],
        ],
        ids=["simplify", "analyze", "verify"],
    )
    def test_cyclic_guard_precedes_block_searches(self, tmp_path, monkeypatch, capsys, argv):
        # Off a tree the report metrics build the matrix first, so the guard
        # fires before the quadratic searches of the sharpness report.
        def unreached(*args, **kwargs):
            raise RuntimeError("superlinear work before the size guard")

        g = cycle_graph(2001)
        gfile = tmp_path / "c.el"
        fileio.write_edge_list(g, gfile)
        pfile = tmp_path / "p.txt"
        fileio.write_partition(singleton_partition(g), pfile)
        monkeypatch.setattr(cli, "sharpness_report", unreached)
        monkeypatch.setattr("qiso.graph._build_distances", unreached)
        outdir = tmp_path / "out"
        outdir.mkdir()
        paths = {"G": str(gfile), "P": str(pfile)}
        argv = [paths.get(a, a) for a in argv] + ["-o", str(outdir / "r")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: all-pairs search guarded at 2000 vertices, got 2001\n"
        )
        assert list(outdir.iterdir()) == []

    def test_claim_needing_partition_without_one(self, tmp_path):
        gfile = tmp_path / "p.el"
        main(["generate", "path", "--n", "5", "-o", str(gfile)])
        assert main(
            [
                "verify",
                str(gfile),
                "--claims",
                "tree-retention",
                "-o",
                str(tmp_path / "v.json"),
            ]
        ) == 2


class TestCliLargeTree:
    """Partition work on a tree needs no matrix and meets no size guard."""

    def test_every_partition_command_on_ten_thousand_vertices(self, tmp_path, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built for a tree")

        gfile = tmp_path / "t.el"
        fileio.write_edge_list(random_tree(10_000, 3), gfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        reports = []
        for method in ("outward", "collapse", "collapse-modified"):
            argv = ["simplify", str(gfile), "--method", method, "-o", str(tmp_path / method)]
            assert main(argv) == 0
            reports.append(tmp_path / f"{method}.report.json")
        pfile = str(tmp_path / "outward.partition.txt")
        out = tmp_path / "a.json"
        assert main(["analyze", str(gfile), "--partition", pfile, "-o", str(out)]) == 0
        reports.append(out)
        claims = "q1,q2,ecc-transfer,tree-retention,compression,shift-bounds,median-preservation"
        out = tmp_path / "v.json"
        argv = ["verify", str(gfile), "--partition", pfile, "--claims", claims]
        assert main(argv + ["-o", str(out)]) == 0
        reports.append(out)
        for path in reports:
            checks = json.loads(path.read_text())["checks"]
            assert checks and all(entry["ok"] for entry in checks.values())


class TestClaimTable:
    @pytest.mark.parametrize("method", ["mis", "collapse", "collapse-modified", "outward"])
    def test_simplify_checks_equal_verify(self, tmp_path, method):
        graphs = [seeded_tree(seed) for seed in range(6)]
        if method != "outward":
            graphs += [seeded_graph(seed) for seed in range(6)]
        for i, g in enumerate(graphs):
            gfile = tmp_path / f"g{i}.el"
            fileio.write_edge_list(g, gfile)
            prefix = tmp_path / f"s{i}"
            assert main(
                ["simplify", str(gfile), "--method", method, "-o", str(prefix)]
            ) == 0
            simplified = json.loads((tmp_path / f"s{i}.report.json").read_text())
            if method == "mis":
                given = ["--mapping", f"{prefix}.mapping.txt"]
                claims = "q1,q2,mis-bounds"
            else:
                given = ["--partition", f"{prefix}.partition.txt"]
                claims = "q1,q2"
            out = tmp_path / f"v{i}.json"
            assert main(
                ["verify", str(gfile), *given, "--claims", claims, "-o", str(out)]
            ) == 0
            verified = json.loads(out.read_text())
            assert list(verified["checks"].items()) == list(
                simplified["checks"].items()
            )

    def test_checks_are_library_calls(self):
        # Every claim is decided in the library: no _CHECKS entry compares
        # or combines values, and cli imports no private library name.
        tree = ast.parse(Path(cli.__file__).read_text())
        table = next(
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "_CHECKS"
        )
        logic = (ast.Compare, ast.BoolOp, ast.Not)
        for claim, entry in zip(table.keys, table.values):
            assert not any(isinstance(n, logic) for n in ast.walk(entry)), claim.value
        library = {"weighted", "partition", "mis", "quasi"}
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").removeprefix("qiso.") in library
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []

    def test_shift_bounds_side_per_construction(self, tmp_path, monkeypatch):
        # A shift between the two bounds fails a quotient, whose one-sided
        # bound applies, and passes an independent-set mapping.
        def between(m):
            rep = center_shift(m)
            assert rep.one_sided_bound < int(rep.two_sided_bound)
            return replace(rep, shift=int(rep.two_sided_bound))

        monkeypatch.setattr(cli, "center_shift", between)
        gfile, pfile = tmp_path / "p.el", tmp_path / "p.partition.txt"
        fileio.write_edge_list(path_graph(12), gfile)
        fileio.write_partition(collapse_basic(path_graph(12)), pfile)
        given = ["--partition", str(pfile)]
        out = ["-o", str(tmp_path / "v.json")]
        assert main(["verify", str(gfile), *given, "--claims", "shift-bounds", *out]) == 1
        assert main(["verify", str(gfile), "--claims", "shift-bounds", *out]) == 0

    def test_claims_are_the_names_verify_accepts(self, tmp_path, capsys):
        gfile = tmp_path / "t.el"
        fileio.write_edge_list(seeded_tree(3, min_n=10), gfile)
        prefix = tmp_path / "s"
        assert main(["simplify", str(gfile), "--method", "outward", "-o", str(prefix)]) == 0
        given = ["--partition", f"{prefix}.partition.txt"]
        out = str(tmp_path / "v.json")
        for claim in CLAIMS:
            assert main(["verify", str(gfile), *given, "--claims", claim, "-o", out]) == 0
        capsys.readouterr()
        assert main(["verify", str(gfile), *given, "--claims", "q3", "-o", out]) == 2
        known = capsys.readouterr().err.strip().split("known: ")[1]
        assert tuple(known.split(", ")) == CLAIMS


class TestMappingPasses:
    # Each mapping keeps its pass: within one command, no mapping builds
    # its block tables or decides whether it is a tree quotient twice,
    # and no stretch's rows are computed twice for it.
    INSTANCES = {
        "graph": (lambda: random_connected_graph(400, 1200, 3), collapse_modified),
        "tree": (lambda: random_tree(30, 3), lambda t: contraction.outward_contraction(t, 0)),
    }

    def commands(self, tmp_path, kind):
        """The input graph, and every simplify, analyze and verify command on it."""
        build, partition = self.INSTANCES[kind]
        g = build()
        gfile, pfile, mfile = (str(tmp_path / name) for name in ("g.el", "p.txt", "m.txt"))
        fileio.write_edge_list(g, gfile)
        fileio.write_partition(partition(g), pfile)
        mis = mis_derived(g, greedy_mis(g))
        fileio.write_mapping([mis.mis[i] for i in mis.mapping.image], mfile)
        every = ["--claims", ",".join(CLAIMS)]
        mapped = ["--claims", ",".join(c for c in CLAIMS if c not in cli._PARTITION_CLAIMS)]
        methods = ["mis", "collapse", "collapse-modified"] + ["outward"] * g.is_tree
        commands = [["simplify", gfile, "--method", method] for method in methods]
        commands += [
            ["analyze", gfile, "--partition", pfile],
            ["verify", gfile, "--partition", pfile, *every],
            ["verify", gfile, "--mapping", mfile, *mapped],
            ["verify", gfile, "--partition", pfile, "--mapping", mfile, *every],
        ]
        return g, [[*argv, "-o", str(tmp_path / "out")] for argv in commands]

    @pytest.mark.parametrize("kind", list(INSTANCES))
    def test_each_pair_once_per_mapping(self, tmp_path, monkeypatch, kind):
        g, commands = self.commands(tmp_path, kind)
        tables = "_tree_quotient" if g.is_tree else "_block_extremes"
        for argv in commands:
            counter = PassCounter(monkeypatch)
            assert main(argv) in (0, 1), argv
            assert counter.repeats() == [], argv
            assert counter.stretches and sum(counter.calls[tables].values()) >= 1, argv
            monkeypatch.undo()

    @pytest.mark.parametrize("kind", list(INSTANCES))
    def test_eccentricities_once_per_graph(self, tmp_path, monkeypatch, kind):
        # Every command reads the eccentricities of its input and of one
        # simplification, each computed once.
        _, commands = self.commands(tmp_path, kind)
        for argv in commands:
            fills = [
                CallCounter(monkeypatch, mod, "_eccentricities", when=lambda g: g._ecc is None)
                for mod in (qiso.graph, qiso.quasi)
            ]
            assert main(argv) in (0, 1), argv
            graphs = [g for fill in fills for (g,) in fill.args]
            assert len(graphs) == len(set(graphs)) == 2, argv
            monkeypatch.undo()

    @pytest.mark.parametrize("kind", list(INSTANCES))
    def test_only_lower_sides_are_computed(self, tmp_path, monkeypatch, kind):
        # No mapping stretches a distance, so every upper side holds by
        # construction and each claim checks its lower side alone, at the
        # mapping's guaranteed stretch A; the minimal constants read the
        # row at stretch 1.
        _, commands = self.commands(tmp_path, kind)
        guaranteed = {}  # each mapping a command builds: its A, clamped to n

        def recorded(build, stretch):
            def wrapped(*args):
                result = build(*args)
                n = result.mapping.source.vertex_count
                guaranteed[result.mapping] = min(stretch(result), n)
                return result

            return wrapped

        def sharpness(pg):
            return sharpness_report(pg.partition).guarantee[0]

        for argv in commands:
            monkeypatch.setattr(
                cli, "build_partition_graph", recorded(cli.build_partition_graph, sharpness)
            )
            monkeypatch.setattr(
                cli, "mis_derived", recorded(cli.mis_derived, lambda r: r.guarantee[0])
            )
            counter = PassCounter(monkeypatch)
            assert main(argv) in (0, 1), argv
            assert counter.stretches, argv
            for m, asked in counter.stretches.items():
                assert set(asked) <= {guaranteed[m], 1}, (argv, asked)
            monkeypatch.undo()

    @pytest.mark.parametrize("kind", list(INSTANCES))
    def test_only_the_input_is_validated(self, tmp_path, monkeypatch, kind):
        # Quotients and derived graphs are valid by construction; the
        # parsed input is the one graph a command validates.
        _, commands = self.commands(tmp_path, kind)
        for argv in commands:
            builds = CallCounter(monkeypatch, Graph, "__init__")
            assert main(argv) in (0, 1), argv
            assert builds.count == 1, argv
            monkeypatch.undo()


class TestInternalError:
    def test_unexpected_exception_exits_three(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_generate", broken)
        out = tmp_path / "x.el"
        assert main(["generate", "path", "--n", "3", "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("internal error: ")
        assert not out.exists()


class TestImports:
    def test_cli_imports_no_scipy(self):
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys, qiso.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-c", code]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"


class TestEntry:
    """``python -m qiso.cli``: the console entry point's exit status."""

    def run(self, tmp_path, *argv):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        cmd = [sys.executable, "-m", "qiso.cli", *argv]
        return subprocess.run(
            cmd, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60
        )

    def test_generate_exits_zero(self, tmp_path):
        run = self.run(tmp_path, "generate", "path", "--n", "3", "-o", "p.el")
        assert (run.returncode, run.stderr) == (0, "")
        assert fileio.read_edge_list(str(tmp_path / "p.el")) == path_graph(3)

    @pytest.mark.parametrize(
        "argv",
        [["generate", "path", "-o", "p.el"], ["generate", "path", "--n", "3"], ["frobnicate"]],
    )
    def test_bad_input_exits_two_and_writes_nothing(self, tmp_path, argv):
        run = self.run(tmp_path, *argv)
        assert run.returncode == 2, run.stderr
        assert run.stderr and run.stdout == ""
        assert list(tmp_path.iterdir()) == []
