import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import seeded_graph, seeded_tree
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
from qiso.graph import diameter_path, leaf_removal_center
from qiso.mis import greedy_mis, mis_derived
from qiso.partition import build_partition_graph, collapse_basic, singleton_partition
from qiso.quasi import center_shift


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

    @pytest.mark.parametrize(
        "text",
        [
            b"",
            b"3\n0 1\n1 2\n",
            b"3 2\n0 1\n",
            b"3 1\n0 1\n1 2\n",
            b"3 2\n1 0\n1 2\n",
            b"3 2\n0 x\n1 2\n",
            b"3 1\n0 1\n",
            b"\xff 3 2\n",
        ],
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.el"
        path.write_bytes(text)
        with pytest.raises(FormatError):
            fileio.read_edge_list(path)


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
        # Outward contraction never moves a tree's center, so a rotated
        # collapse, which often does, stands in for it to reach failing roots.
        def rotated_collapse(g, root):
            return collapse_basic(g, [(root + i) % g.vertex_count for i in g.vertices()])

        outward_blocks = contraction._outward_blocks

        def rotated_blocks(g, root):
            order, parent, _ = outward_blocks(g, root)
            return order, parent, rotated_collapse(g, root).block_of

        monkeypatch.setattr(contraction, "_outward_blocks", rotated_blocks)
        for seed in range(30):
            t = seeded_tree(seed, min_n=3, max_n=30)
            gfile = tmp_path / f"t{seed}.el"
            fileio.write_edge_list(t, gfile)
            prefix = tmp_path / f"s{seed}"
            argv = ["simplify", str(gfile), "--method", "outward", "--all-roots"]
            assert main(argv + ["-o", str(prefix)]) == 0
            report = json.loads((tmp_path / f"s{seed}.report.json").read_text())
            shifts = (
                center_shift(build_partition_graph(t, rotated_collapse(t, r)).mapping).shift
                for r in t.vertices()
            )
            first_bad = next((r for r, s in enumerate(shifts) if s), None)
            assert report["checks"]["center-shift-zero-all-roots"] == {
                "ok": first_bad is None,
                "witness": first_bad,
            }

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
        diameter = len(diameter_path(t)) - 1
        assert report["diameter"] == diameter
        assert report["radius"] == (diameter + 1) // 2
        assert report["center"] == list(leaf_removal_center(t))
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
