import ast
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
import qiso
from helpers import seeded_graph, seeded_tree
from passes import CallCounter, PassCounter
from qiso import cli, contraction, fileio
from qiso.cli import CLAIMS, main
from qiso.errors import FormatError, InvalidWeight, QisoError
from qiso.generators import (
    complete_graph,
    cycle_graph,
    non_uniecc_chordal,
    path_graph,
    random_connected_graph,
    random_partition,
    random_tree,
    star_graph,
)
from qiso.graph import Graph, diameter_path
from qiso.mis import greedy_mis, mis_derived, verify_mis_bounds
from qiso.partition import (
    Partition,
    build_partition_graph,
    collapse_basic,
    collapse_modified,
    sharpness_report,
    singleton_partition,
    verify_partition_qiso,
)
from qiso.quasi import center_shift, verify_ecc_transfer, verify_q1
from qiso.weighted import WeightedGraph


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


# Tokens that a canonical file never holds and the line walk must read as
# the references do: leading zeros, 19 or more digits (2**63 - 1 and up
# saturate in np.fromstring), tokens int() alone would take, and the
# fractions a weight file may hold.
_ODD_TOKENS = ["007", "0" * 20 + "1", "9" * 19, str(2**63 - 1), str(2**63), "1" + "0" * 25]
_ODD_TOKENS += ["x", "-1", "+1", "1_0", "#1", "2/3", "4/2", "1/0"]


@st.composite
def _two_column_file(draw):
    """A graph, and an edge list, a mapping onto it or a weight file
    written as qiso writes them, then perturbed in content, tokens and
    layout."""
    g = draw(
        st.one_of(
            st.integers(0, 10**6).map(lambda s: seeded_graph(s, max_n=12)),
            st.integers(0, 10**6).map(lambda s: seeded_tree(s, max_n=12)),
            st.integers(1, 3).map(path_graph),
        )
    )
    n = g.vertex_count
    kind = draw(st.sampled_from(["edge_list", "mapping", "weights"]))
    if kind == "edge_list":
        rows = [list(e) for e in g.edges()]
    elif kind == "mapping":
        rows = [[v, draw(st.integers(0, n - 1))] for v in range(n)]
    else:  # a zero weight among them, or not
        rows = [[v, draw(st.integers(0, 9))] for v in range(n)]
    edits = ["drop", "repeat", "swap", "loop", "range", "shuffle"]
    for edit in draw(st.lists(st.sampled_from(edits), max_size=3)) if draw(st.booleans()) else ():
        if not rows:
            break
        k = draw(st.integers(0, len(rows) - 1))
        if edit == "drop":  # a disconnected graph, a missing image or weight
            del rows[k]
        elif edit == "repeat":  # a duplicate edge, image or weight
            rows.insert(draw(st.integers(0, len(rows))), list(rows[k]))
        elif edit == "swap":  # u > v
            rows[k].reverse()
        elif edit == "loop":  # u == v
            rows[k][1] = rows[k][0]
        elif edit == "range":
            rows[k][draw(st.integers(0, 1))] = n + draw(st.integers(0, 2))
        else:  # lines in another order
            rows = draw(st.permutations(rows))
    if kind == "edge_list":  # a header that agrees with the body, or does not
        rows.insert(0, [n, max(len(rows) + draw(st.sampled_from([0, -1, 1])), 0)])
    for _ in range(draw(st.integers(1, 2)) if rows and draw(st.booleans()) else 0):
        k = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):  # a field too many or too few
            rows[k] = rows[k] + [draw(st.integers(0, n))] if draw(st.booleans()) else rows[k][:1]
        else:
            rows[k] = list(rows[k])
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    layouts = ["separators", "margins", "crlf", "blanks and comments", "no final newline"]
    layout = draw(st.sets(st.sampled_from(layouts), min_size=1)) if draw(st.booleans()) else ()
    lines = []
    for fields in rows:
        sep, lead, trail, end = " ", "", "", "\n"
        if "separators" in layout:
            sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
        if "margins" in layout:
            lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        if "crlf" in layout:
            end = draw(st.sampled_from(["\n", "\r\n"]))
        if "blanks and comments" in layout and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["\n", "# c\n", " #x 1 2\n", "\t\n"])))
        lines.append(lead + sep.join(map(str, fields)) + trail + end)
    text = "".join(lines)
    if "no final newline" in layout:
        text = text.rstrip("\n")
    if draw(st.sampled_from(range(16))) == 15:
        text = draw(st.sampled_from(["", "\n", "\n\n", " \n", "0\n", "0 0"]))
    return g, kind, text.encode()


def _outcome(read, *args):
    """What ``read`` returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _write_edges(path, n, edges, header_m=None):
    """An edge list written as the benchmark's workload generator writes one."""
    m = len(edges) if header_m is None else header_m
    path.write_text(f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges))


class TestWholeFilePasses:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_two_column_file())
    @example((path_graph(3), "edge_list", b"3 2\n0 1\n2 1\n"))
    @example((path_graph(3), "edge_list", b"9223372036854775808 2\n0 1\n1 2\n"))
    @example((path_graph(3), "edge_list", b"\n"))
    @example((path_graph(3), "mapping", b"0 0\n1 3\n2 2\n"))
    @example((path_graph(3), "mapping", b"0 0\n2 2\n1 1\n2 1\n"))
    @example((path_graph(3), "weights", b"1 5\n0 3\n2 4\n"))
    @example((path_graph(3), "weights", b"0 5\n0 3\n2 4\n"))
    @example((path_graph(3), "weights", b"0 5\n1 3\n"))
    @example((path_graph(3), "weights", b"0 5\n1 3\n2 4\n3 1\n"))
    @example((path_graph(3), "weights", b"0 5\n1 0\n2 4\n"))
    @example((path_graph(3), "weights", b"0 5\n1 2/3\n2 4\n"))
    @example((path_graph(3), "weights", b"0 5\n1 1234567890123456789\n2 4\n"))
    @example((path_graph(3), "weights", b"# w\n0 5\n1 3\n2 4\n"))
    @example((path_graph(3), "weights", b"0 5\r\n1 3\r\n2 4\r\n"))
    def test_readers_match_references(self, tmp_path, case):
        # Same graph, image list or weights, or the same exception and
        # message, as the line-by-line readers on every perturbed file.
        g, kind, data = case
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        args = (path,) if kind == "edge_list" else (path, g)
        read = "read_" + kind
        assert _outcome(getattr(fileio, read), *args) == _outcome(getattr(oracles, read), *args)

    def test_canonical_files_skip_the_line_walk(self, tmp_path, monkeypatch):
        def walk(path):
            raise AssertionError(f"{path} was walked line by line")

        monkeypatch.setattr(fileio, "_content_lines", walk)
        graphs = [path_graph(1), path_graph(2), star_graph(9)]
        graphs += [seeded_graph(s) for s in range(8)] + [seeded_tree(s) for s in range(8)]
        for i, g in enumerate(graphs):
            files = (tmp_path / f"{name}{i}" for name in ("g.el", "w.el", "m.txt", "w.txt"))
            ours, theirs, mapping, weight_file = files
            fileio.write_edge_list(g, ours)
            _write_edges(theirs, g.vertex_count, g.edges())
            image = [random.Random(i).randrange(g.vertex_count) for _ in g.vertices()]
            fileio.write_mapping(image, mapping)
            weights = random.Random(i).sample(range(1, 10**18), g.vertex_count)
            fileio.write_weights(weights, weight_file)
            assert fileio.read_edge_list(ours) == fileio.read_edge_list(theirs) == g
            assert fileio.read_mapping(mapping, g) == image
            assert fileio.read_weights(weight_file, g) == weights
        # The corrupted canonical files of the small-tree workload, and
        # canonical mappings that fail, are rejected without a walk too.
        t = seeded_tree(3, min_n=8)
        edges = t.edges()
        bad = tmp_path / "bad.txt"
        for rows in (edges + edges[:1], edges[1:]):
            _write_edges(bad, t.vertex_count, rows)
            with pytest.raises(QisoError):
                fileio.read_edge_list(bad)
        for m in (len(edges) - 1, len(edges) + 1):
            _write_edges(bad, t.vertex_count, edges, m)
            with pytest.raises(FormatError):
                fileio.read_edge_list(bad)
        for text, message in [
            ("0 0\n1 0\n", ": 1 vertices have no image$"),
            ("0 0\n0 1\n1 1\n2 2\n", "^line 2: duplicate image for vertex 0$"),
            ("0 0\n1 3\n2 2\n", "^line 2: vertex out of range$"),
        ]:
            bad.write_text(text)
            with pytest.raises(FormatError, match=message):
                fileio.read_mapping(bad, path_graph(3))
        # A zero weight read as an int is refused as a Fraction one is.
        fileio.write_weights([3, 0, 1], bad)
        with pytest.raises(InvalidWeight, match="^weight of vertex 1 is 0, must be positive$"):
            WeightedGraph(path_graph(3), tuple(fileio.read_weights(bad, path_graph(3))))

    def test_writers_match_references(self, tmp_path):
        graphs = [path_graph(1), path_graph(2), star_graph(12)]
        graphs += [seeded_graph(s) for s in range(10)] + [seeded_tree(s) for s in range(10)]
        graphs.append(mis_derived(graphs[5], greedy_mis(graphs[5])).derived)
        for i, g in enumerate(graphs):
            assert fileio._edge_list_text(g) == oracles.edge_list_text(g)
            path = tmp_path / f"g{i}.el"
            fileio.write_edge_list(g, path)
            assert fileio.read_edge_list(path) == g
            result = mis_derived(g, greedy_mis(g))
            image = [result.mis[j] for j in result.mapping.image]
            assert fileio._mapping_text(image) == oracles.mapping_text(image)
            path = tmp_path / f"m{i}.txt"
            fileio.write_mapping(image, path)
            assert fileio.read_mapping(path, g) == image


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

    @pytest.mark.parametrize("claim", ["q1", "ecc-transfer", "mis-bounds", "q2"])
    @pytest.mark.parametrize(
        "image, message",
        [
            ([0, 1, 1, 3, 3], "edge (0, 1) inside the set"),
            ([0, 0, 0, 4, 4], "vertex 2 could be added to the set"),
            ([0, 4, 2, 2, 4], "f(1) = 4 is not adjacent to 1"),
        ],
    )
    def test_proven_claims_check_their_premises(self, tmp_path, capsys, claim, image, message):
        # A claim decided by its proof checks the outside input it rests
        # on: a --mapping file's mapping is built, and its constructor
        # refuses a set that is not independent or not maximal, and an
        # image that is not adjacent, so no proof is applied to input
        # outside its premises.
        gfile, mfile, out = tmp_path / "p.el", tmp_path / "m.txt", tmp_path / "v.json"
        fileio.write_edge_list(path_graph(5), gfile)
        fileio.write_mapping(image, mfile)
        argv = ["verify", str(gfile), "--mapping", str(mfile), "--claims", claim]
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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
            ["--mapping", "M", "--claims", "q1"],
        ],
        ids=["q1", "ecc-transfer", "q2", "partition-mis-bounds", "mapping-q1"],
    )
    def test_mis_claims_meet_size_guard(self, tmp_path, monkeypatch, capsys, extra):
        # A theorem claim checks only its outside input: on the greedy set
        # it builds nothing, so no search runs for the guard to bound. A
        # --mapping file is validated by building its derived graph, whose
        # within-3 search still meets the guard.
        def unreached(*args, **kwargs):
            raise RuntimeError("search run for a proven claim")

        g = path_graph(2001)
        gfile, pfile, mfile = (tmp_path / name for name in ("p.el", "p.txt", "m.txt"))
        fileio.write_edge_list(g, gfile)
        fileio.write_partition(singleton_partition(g), pfile)
        # The greedy set is the even vertices; each odd one maps to v - 1.
        fileio.write_mapping([v - v % 2 for v in g.vertices()], mfile)
        monkeypatch.setattr("qiso.graph._build_distances", unreached)
        out = tmp_path / "v.json"
        paths = {"P": str(pfile), "M": str(mfile)}
        argv = ["verify", str(gfile)] + [paths.get(a, a) for a in extra] + ["-o", str(out)]
        if "--mapping" in extra:
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "error: all-pairs search guarded at 2000 vertices, got 2001\n"
            )
            assert not out.exists()
            return
        monkeypatch.setattr("qiso.mis._within", unreached)
        monkeypatch.setattr(cli, "mis_derived", unreached)
        assert main(argv) == 0
        checks = json.loads(out.read_text())["checks"]
        assert checks == {extra[-1]: {"ok": True, "witness": None}}

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

    def test_mis_claims_at_the_guard_build_no_matrix(self, tmp_path, monkeypatch):
        # The proven claims on the greedy independent-set mapping need only
        # its derived graph, which a three-level search from the members
        # builds; 2000 vertices is the largest size the guard admits.
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built for a tree")

        gfile = tmp_path / "t.el"
        fileio.write_edge_list(random_tree(2000, 5), gfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        out = tmp_path / "v.json"
        argv = ["verify", str(gfile), "--claims", "q1,q2,ecc-transfer,mis-bounds"]
        assert main(argv + ["-o", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert sorted(checks) == ["ecc-transfer", "mis-bounds", "q1", "q2"]
        assert all(entry["ok"] for entry in checks.values())

    def test_every_claim_on_a_partitioned_tree(self, tmp_path, monkeypatch, capsys):
        # The theorem claims build no independent set, so all eight claims
        # run on a 10^4-vertex tree; simplify --method mis still builds its
        # derived graph, whose within-3 search meets the guard.
        def no_matrix(*args, **kwargs):
            raise RuntimeError("all-pairs matrix built for a tree")

        t = random_tree(10_000, 7)
        gfile, pfile, out = tmp_path / "t.el", tmp_path / "p.txt", tmp_path / "v.json"
        fileio.write_edge_list(t, gfile)
        fileio.write_partition(contraction.outward_contraction(t, 0), pfile)
        monkeypatch.setattr("qiso.graph._build_distances", no_matrix)
        argv = ["verify", str(gfile), "--partition", str(pfile), "--claims", ",".join(CLAIMS)]
        assert main(argv + ["-o", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert list(checks) == list(CLAIMS) and all(e["ok"] for e in checks.values())
        prefix = tmp_path / "s"
        argv = ["simplify", str(gfile), "--method", "mis", "-o", str(prefix)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: all-pairs search guarded at 2000 vertices, got 10000\n"
        )
        assert list(tmp_path.glob("s.*")) == []


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
        # Every claim is decided in the library or by a proof: no _CHECKS
        # entry compares or combines values, and cli imports no private
        # library name.
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


class TestProvenClaims:
    # q1, ecc-transfer and mis-bounds are decided by their proofs; each
    # verdict must equal the exhaustive library check at the guarantee,
    # and the Python-int oracles where n is small.
    @staticmethod
    def instances():
        """Graphs, each with its partitions and independent-set images."""
        graphs = [seeded_graph(seed, max_n=30) for seed in range(12)]
        graphs += [seeded_tree(seed, max_n=30) for seed in range(12)]
        graphs += [f(n) for f in (path_graph, star_graph, complete_graph) for n in (1, 2, 3, 6)]
        for i, g in enumerate(graphs):
            n, rng = g.vertex_count, random.Random(i)
            partitions = [collapse_basic(g), collapse_modified(g), random_partition(g, i)]
            if g.is_tree:
                partitions.append(contraction.outward_contraction(g, i % n))
            images = []
            for order in (None, range(n - 1, -1, -1), rng.sample(range(n), n)):
                s = greedy_mis(g, order)
                images.append([s[b] for b in mis_derived(g, s).mapping.image])
                # Any adjacent member, often not the smallest: non-canonical.
                images.append(
                    [v if v in s else rng.choice([u for u in g.adjacency[v] if u in s])
                     for v in g.vertices()]
                )
            yield g, partitions, images

    def test_proven_verdicts_equal_exhaustive_checks(self, tmp_path):
        gfile, pfile, mfile, out = (tmp_path / f for f in ("g.el", "p.txt", "m.txt", "v.json"))
        claims = ["--claims", "q1,ecc-transfer,mis-bounds", "-o", str(out)]

        def verified(*given):
            assert main(["verify", str(gfile), *given, *claims]) == 0
            return json.loads(out.read_text())["checks"]

        def exhaustive(m, guarantee):
            return {
                "q1": fileio.check_entry(verify_q1(m, *guarantee)),
                "ecc-transfer": fileio.check_entry(verify_ecc_transfer(m, *guarantee)),
            }

        def oracle_verdicts(m, guarantee, r=None):
            """Each verdict by the Python-int oracles, or None where n is large."""
            if m.source.vertex_count > 12:
                return None
            verdicts = {
                "q1": oracles.q1_witness(m, *guarantee) is None,
                "ecc-transfer": oracles.ecc_transfer_holds(m, *guarantee),
            }
            if r is not None:
                verdicts["mis-bounds"] = oracles.mis_bounds_witness(r) is None
            return verdicts

        sizes = set()
        for g, partitions, images in self.instances():
            fileio.write_edge_list(g, gfile)
            for image in images:
                fileio.write_mapping(image, mfile)
                r = mis_derived(g, sorted(set(image)), image)
                mis_entries = exhaustive(r.mapping, r.guarantee)
                mis_entries["mis-bounds"] = fileio.check_entry(verify_mis_bounds(r))
                checks = verified("--mapping", str(mfile))
                assert checks == mis_entries
                oracle = oracle_verdicts(r.mapping, r.guarantee, r)
                assert oracle in (None, {c: e["ok"] for c, e in checks.items()})
            # Beside a partition, mis-bounds reads the last, non-canonical mapping.
            for p in partitions:
                fileio.write_partition(p, pfile)
                pg, guarantee = build_partition_graph(p), sharpness_report(p).guarantee
                entries = exhaustive(pg.mapping, guarantee)
                entries["mis-bounds"] = mis_entries["mis-bounds"]
                checks = verified("--partition", str(pfile), "--mapping", str(mfile))
                assert checks == entries and verify_partition_qiso(pg)
                oracle = oracle_verdicts(pg.mapping, guarantee)
                assert oracle in (None, {c: checks[c]["ok"] for c in ("q1", "ecc-transfer")})
            sizes.add(g.vertex_count)
        assert {1, 2, 3} <= sizes

    @pytest.mark.parametrize("given", ["none", "partition", "mapping", "both"])
    def test_proven_verdicts_build_nothing(self, tmp_path, monkeypatch, given):
        # A theorem claim checks only the outside input its proof rests on:
        # the greedy set is never built for one, and a --mapping file is
        # validated by building its derived graph once.
        gfile, pfile, mfile, out = (tmp_path / f for f in ("g.el", "p.txt", "m.txt", "v.json"))
        flags = {"partition": ["--partition", str(pfile)], "mapping": ["--mapping", str(mfile)]}
        flags["both"] = flags["partition"] + flags["mapping"]
        claim_sets = ["q1,q2,ecc-transfer,mis-bounds", "mis-bounds", "q2,ecc-transfer,q1"]
        if given == "both":
            claim_sets = claim_sets[:2]  # beside a partition, only mis-bounds reads a mapping
        graphs = [seeded_graph(seed, max_n=60) for seed in range(8)]
        graphs += [seeded_tree(seed) for seed in range(8)]
        graphs += [f(n) for f in (path_graph, star_graph) for n in (1, 2, 3)]
        for g in graphs:
            fileio.write_edge_list(g, gfile)
            fileio.write_partition(collapse_basic(g), pfile)
            r = mis_derived(g, greedy_mis(g))
            fileio.write_mapping([r.mis[i] for i in r.mapping.image], mfile)
            for claims in claim_sets:
                counts = [
                    CallCounter(monkeypatch, owner, name)
                    for owner, name in ((cli, "greedy_mis"), (cli, "mis_derived"),
                                        (qiso.mis, "_within"))
                ]
                argv = ["verify", str(gfile), *flags.get(given, []), "--claims", claims]
                assert main(argv + ["-o", str(out)]) == 0, argv
                checks = json.loads(out.read_text())["checks"]
                assert all(e == {"ok": True, "witness": None} for e in checks.values())
                read = given in ("mapping", "both")
                assert [c.count for c in counts] == [0, read, read], argv
                monkeypatch.undo()


class TestMappingPasses:
    # Within one command, no mapping builds its block tables twice, and
    # no stretch's rows are computed twice for it.
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
        # Every command asks for rows; on a graph with cycles they come
        # from the block tables.
        g, commands = self.commands(tmp_path, kind)
        for argv in commands:
            counter = PassCounter(monkeypatch)
            assert main(argv) in (0, 1), argv
            assert counter.repeats() == [], argv
            assert counter.stretches and (g.is_tree or sum(counter.tables.values()) >= 1), argv
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
        # construction, and at the mapping's guarantee each lower side is
        # a theorem; the one row set computed is at stretch 1, for the
        # minimal constants, once per mapping.
        _, commands = self.commands(tmp_path, kind)
        for argv in commands:
            counter = PassCounter(monkeypatch)
            assert main(argv) in (0, 1), argv
            assert counter.stretches, argv
            for asked in counter.stretches.values():
                assert asked == [1], (argv, asked)
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

    @pytest.mark.parametrize("kind", list(INSTANCES))
    def test_only_partition_files_are_validated(self, tmp_path, monkeypatch, kind):
        # Every partition qiso builds is connected by construction; the one
        # a command validates is a --partition file's.
        g, commands = self.commands(tmp_path, kind)
        if g.is_tree:
            argv = ["simplify", str(tmp_path / "g.el"), "--method", "outward", "--all-roots"]
            commands.append([*argv, "-o", str(tmp_path / "out")])
        for argv in commands:
            builds = CallCounter(monkeypatch, Partition, "__init__")
            assert main(argv) in (0, 1), argv
            assert builds.count == ("--partition" in argv), argv
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

    def test_generate_help_and_usage_errors_load_no_numpy(self, tmp_path):
        # numpy loads where qiso first computes with it: the all-pairs
        # layer and the canonical reader, never at import.
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys, qiso, qiso.cli\n"
            "values = {'n': '12', 'm': '20', 'seed': '3', 't': '2'}\n"
            "codes = []\n"
            "for family, (flags, _, _) in qiso.cli._FAMILIES.items():\n"
            "    argv = ['generate', family, '-o', family + '.el']\n"
            "    for flag in flags:\n"
            "        argv += ['--' + flag, values[flag]]\n"
            "    codes.append(qiso.cli.main(argv))\n"
            "codes += [qiso.cli.main(['--help']), qiso.cli.main(['frobnicate'])]\n"
            "print(codes, 'numpy' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-c", code]
        run = subprocess.run(
            argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        families = len(cli._FAMILIES)
        assert run.stdout.splitlines()[-1] == f"{[0] * families + [0, 2]} False"
        assert len(list(tmp_path.glob("*.el"))) == families


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
