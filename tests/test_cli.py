import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coxaut.checks
import coxaut.system
from coxaut import cli
from coxaut.automorphisms import BallAutomorphism, diagram_aut
from coxaut.cli import EXIT_INDETERMINATE, EXIT_INTERNAL, main
from coxaut.system import ParseError, parse_system

from conftest import random_systems

A2 = "gens a b\npair a b 3\n"
BRANCHED = "gens s t u\npair t u 2\n"
# flexible at pivot s, whose neighbour t has order 3 with it: psi_n is undefined
ODD_PIVOT = str(Path(__file__).resolve().parent.parent / "diagrams" / "frontier" / "odd-pivot.cox")
# the free diagram of rank 10, whose 10! diagram automorphisms verify never lists
FREE10 = str(Path(__file__).resolve().parent.parent / "diagrams" / "frontier" / "free10.cox")
ROOT = Path(__file__).resolve().parent.parent


# the guards each command reads; it rejects every other guard's flag and ignores its variable
READS = {
    "check-flexible": (),
    "reduce": ("--max-states",),
    "ball": ("--max-vertices",),
    "cycles": ("--max-vertices",),
    "exotic": ("--max-vertices",),
    "stabilizer": ("--max-vertices", "--max-nodes"),
    "verify": ("--max-vertices", "--max-nodes"),
}
UNREAD = [(command, flag) for command, flags in READS.items() for flag in cli.GUARDS if flag not in flags]


def guard_free_argv(command: str) -> list[str]:
    """A small run of command on the flexible diagram (gens s t u) with no guard given."""
    rest = {"reduce": ["s t u t"], "check-flexible": []}.get(command, ["--radius", "2"])
    return [command, str(ROOT / "diagrams" / "flexible.cox"), *rest]


@pytest.fixture()
def a2_file(tmp_path):
    path = tmp_path / "a2.cox"
    path.write_text(A2)
    return str(path)


@pytest.fixture()
def branched_file(tmp_path):
    path = tmp_path / "branched.cox"
    path.write_text(BRANCHED)
    return str(path)


class TestFlexibleCommand:
    def test_flexible_text(self, branched_file, capsys):
        assert main(["check-flexible", branched_file]) == 0
        assert capsys.readouterr().out.strip() == "FLEXIBLE pivot=s phi=(t u)"

    def test_rigid_text(self, a2_file, capsys):
        assert main(["check-flexible", a2_file]) == 0
        assert capsys.readouterr().out.strip() == "NOT FLEXIBLE"

    def test_json_payload(self, branched_file, capsys):
        assert main(["check-flexible", branched_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flexible"] is True
        assert payload["pivot"] == "s"
        assert payload["phi"] == "(t u)"
        assert payload["system"]["generators"] == ["s", "t", "u"]


class TestReduceCommand:
    def test_braid_reduction(self, a2_file, capsys):
        assert main(["reduce", a2_file, "a b a b"]) == 0
        out = capsys.readouterr().out
        assert "canonical: b a" in out
        assert "length: 2" in out
        assert "m-class size: 1" in out

    def test_empty_word(self, a2_file, capsys):
        assert main(["reduce", a2_file, "e"]) == 0
        out = capsys.readouterr().out
        assert "canonical: e" in out
        assert "length: 0" in out

    def test_unknown_generator(self, a2_file, capsys):
        assert main(["reduce", a2_file, "a z"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBallCommand:
    def test_text_summary(self, a2_file, capsys):
        assert main(["ball", a2_file, "--radius", "3"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 6" in out
        assert "edges: 6" in out
        assert "complete: yes" in out

    def test_json_is_byte_stable(self, branched_file, capsys):
        assert main(["ball", branched_file, "--radius", "3", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["ball", branched_file, "--radius", "3", "--format", "json"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert payload["radius"] == 3
        assert payload["vertices"][0] == {"id": 0, "word": "e"}
        assert all(len(e) == 3 for e in payload["edges"])

    def test_dot_export(self, a2_file, tmp_path, capsys):
        dot = tmp_path / "ball.dot"
        assert main(["ball", a2_file, "--radius", "2", "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("graph")
        assert '"a"' in text or "label" in text

    @pytest.mark.parametrize("radius", ["2", "30"])
    def test_unwritable_dot_path_is_an_input_error_before_the_ball(self, radius, tmp_path, capsys):
        # at radius 30 the 10-vertex guard would trip while building the ball
        tree = tmp_path / "tree.cox"
        tree.write_text("gens a b c\n")
        path = tmp_path / "missing" / "x.dot"
        assert main(["ball", str(tree), "--radius", radius, "--max-vertices", "10", "--dot", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["ball", "flexible.cox", "--radius", "5", "--max-vertices", "50"], "ball exceeded 50 vertices"),
            (["exotic", "flexible.cox", "--radius", "5", "--max-vertices", "50"], "ball exceeded 50 vertices"),
            (["stabilizer", "flexible.cox", "--radius", "4", "--max-nodes", "10"], "stabilizer search exceeded 10 nodes"),
        ],
    )
    def test_guard_trips_before_any_output(self, argv, err, capsys):
        # exit 3 never comes with partial JSON: every guard runs before the first byte
        assert main([argv[0], str(ROOT / "diagrams" / argv[1]), *argv[2:], "--format", "json"]) == EXIT_INDETERMINATE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"INDETERMINATE: {err}\n")

    def test_negative_radius(self, a2_file, capsys):
        assert main(["ball", a2_file, "--radius", "-1"]) == 2
        assert "radius" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "diagram, options, stdout_sha256, dot_sha256",
        [
            (
                "flexible.cox",
                ["--radius", "7"],
                "b2205013f6dd3edde4778c5bb94907399178d85dcf2758a7cf49d7892352bc44",
                "c2d97d25c90af4ddf54cf3f2af8baad9b37ab34fce0c026f7a25d1e75f78a436",
            ),
            (
                "frontier/flexible5.cox",
                ["--radius", "8", "--format", "json"],
                "db2556d37e11d69d5ede47a84dc473ad7e03fd181c9691cf5e7e5069a3c47a0d",
                "c04e016871eb258f22330ad6e28f7fa9f098419e7b5fc6403324d18c0f1769b0",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, diagram, options, stdout_sha256, dot_sha256, tmp_path, capsys):
        # digests of the output before the word-text table and the JSON writer existed
        dot = tmp_path / "ball.dot"
        assert main(["ball", str(ROOT / "diagrams" / diagram), *options, "--dot", str(dot)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == dot_sha256


class TestCyclesCommand:
    def test_hexagon_listing(self, a2_file, capsys):
        assert main(["cycles", a2_file, "--radius", "3"]) == 0
        out = capsys.readouterr().out
        assert "1 embedded cycles of length <= 6 at radius 3" in out
        assert "essential" in out
        assert "certified" in out
        assert "relator(a,b)" in out

    def test_json_rows(self, branched_file, capsys):
        assert main(["cycles", branched_file, "--radius", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        relators = [row for row in payload["cycles"] if row["relator"]]
        assert len(relators) == 4
        assert all(row["relator"] == ["t", "u"] for row in relators)
        assert all(row["essential"] for row in relators)

    def test_paths_deeper_than_the_recursion_limit(self, capsys):
        # a diagram with no finite order has a tree as its Cayley graph: no cycle words
        path = Path(__file__).resolve().parent.parent / "diagrams" / "free2.cox"
        assert main(["cycles", str(path), "--radius", "1100", "--max-length", "2300"]) == 0
        assert capsys.readouterr().out == "0 embedded cycles of length <= 2300 at radius 1100\n"

    def test_cycle_longer_than_the_recursion_limit(self, tmp_path, capsys):
        # the Cayley graph of I2(600) is one 1200-cycle: the search for cycle
        # words keeps its 1200-vertex path on an explicit stack
        path = tmp_path / "i2.cox"
        path.write_text("gens a b\npair a b 600\n")
        assert main(["cycles", str(path), "--radius", "600", "--max-length", "1200", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["cycles"]
        assert len(row["vertices"]) == 1200
        assert (row["essential"], row["certified"], row["relator"]) == (True, True, ["a", "b"])

    @pytest.mark.parametrize("max_vertices,code", [(None, 0), (716, 0), (715, 3), (93, 3)])
    def test_word_ball_guard(self, max_vertices, code, capsys):
        # |B_5| = 93 and |B_8| = 716: a 16-cycle's words at r = 5 need the ball of radius 8
        argv = ["cycles", str(ROOT / "diagrams" / "frontier" / "triangle578.cox"), "--radius", "5", "--max-length", "16"]
        guard = [] if max_vertices is None else ["--max-vertices", str(max_vertices)]
        assert main(argv + guard) == code
        if code == 3:
            assert capsys.readouterr().err == f"INDETERMINATE: ball exceeded {max_vertices} vertices\n"

    def test_guard_trips_before_any_output(self, capsys):
        # the r = 5 ball fits in 715 vertices, the r = 8 ball of its cycle words does not
        argv = ["cycles", str(ROOT / "diagrams" / "frontier" / "triangle578.cox"), "--radius", "5"]
        assert main([*argv, "--max-vertices", "715", "--format", "json"]) == EXIT_INDETERMINATE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "INDETERMINATE: ball exceeded 715 vertices\n")

    def test_negative_max_length(self, a2_file, capsys):
        assert main(["cycles", a2_file, "--radius", "3", "--max-length", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-length must be nonnegative\n"


class TestExoticCommand:
    def test_rigid_input_is_an_error(self, a2_file, capsys):
        assert main(["exotic", a2_file]) == 2
        assert "not flexible" in capsys.readouterr().err

    def test_basic_map(self, branched_file, capsys):
        assert main(["exotic", branched_file, "--radius", "4"]) == 0
        out = capsys.readouterr().out
        assert "psi pivot=s phi=(t u)" in out
        assert "verified: yes" in out
        assert "field: non-constant" in out
        assert "  t -> u" in out

    def test_family_member(self, branched_file, capsys):
        assert main(["exotic", branched_file, "--radius", "4", "--n", "2"]) == 0
        assert "psi_2 pivot=s" in capsys.readouterr().out

    def test_family_index_validated(self, branched_file, capsys):
        assert main(["exotic", branched_file, "--n", "0"]) == 2

    def test_family_member_needs_an_even_pivot(self, capsys):
        assert main(["exotic", ODD_PIVOT, "--radius", "4", "--n", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: psi_n is undefined: the pivot s has odd order 3 with t, "
            "so words of one element differ in pivot count\n"
        )
        assert main(["exotic", ODD_PIVOT, "--radius", "4"]) == 0

    def test_odd_pivot_rejected_before_the_ball(self, capsys, monkeypatch):
        def no_ball(*args, **kwargs):
            raise AssertionError("the ball was built")

        monkeypatch.setattr(cli, "build_ball", no_ball)
        assert main(["exotic", ODD_PIVOT, "--radius", "40", "--n", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: psi_n is undefined: the pivot s has odd order 3 with t")

    def test_json_map_entries(self, branched_file, capsys):
        assert main(["exotic", branched_file, "--radius", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["n"] is None
        assert ["t", "u"] in payload["map"]
        assert payload["field"]["constant"] is False


class TestStabilizerCommand:
    def test_hexagon_census(self, a2_file, capsys):
        assert main(["stabilizer", a2_file, "--radius", "3", "--probe", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert payload["diagram_count"] == 2
        assert payload["exotic_count"] == 0
        verdicts = {entry["verdict"] for entry in payload["entries"]}
        assert verdicts == {"diagram"}

    def test_text_lists_entries(self, branched_file, capsys):
        assert main(["stabilizer", branched_file, "--radius", "4", "--probe", "2"]) == 0
        out = capsys.readouterr().out
        assert "identity-fixing classes at radius 4, probe 2" in out
        assert "[exotic]" in out
        assert "[(t u)]" in out

    def test_entries_named_without_listing_the_symmetries(self, tmp_path, capsys):
        # listing the 10! symmetries of this free diagram trips the diagram
        # search guard; the census reads each entry's permutation at e instead
        path = tmp_path / "free10.cox"
        path.write_text("gens " + " ".join(f"g{i}" for i in range(10)) + "\n")
        assert main(["stabilizer", str(path), "--radius", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == payload["diagram_count"] == 1
        assert [entry["diagram"] for entry in payload["entries"]] == ["id"]


    @pytest.mark.parametrize("probe", ["-1", "31"])
    def test_probe_out_of_range_rejected_before_the_ball(self, tmp_path, probe, capsys, monkeypatch):
        def no_ball(*args, **kwargs):
            raise AssertionError("the ball was built")

        monkeypatch.setattr(cli, "build_ball", no_ball)
        tree = tmp_path / "tree.cox"
        tree.write_text("gens a b c\n")
        assert main(["stabilizer", str(tree), "--radius", "30", "--probe", probe]) == 2
        assert capsys.readouterr().err == "error: probe radius must lie between 0 and the ball radius\n"


class TestVerifyCommand:
    def test_rigid_system_passes(self, a2_file, capsys):
        assert main(["verify", a2_file, "--radius", "4"]) == 0
        out = capsys.readouterr().out
        assert "verdict: DISCRETE-EVIDENCE" in out
        assert "[         PASS]" in out
        assert "FAIL" not in out

    def test_flexible_system_verdict(self, branched_file, capsys):
        assert main(["verify", branched_file, "--radius", "4"]) == 0
        assert "verdict: NONDISCRETE-EVIDENCE" in capsys.readouterr().out

    @pytest.mark.parametrize("radius", [4, 5])
    def test_odd_pivot_leaves_psi_n_vacuous(self, radius, capsys):
        assert main(["verify", ODD_PIVOT, "--radius", str(radius), "--format", "json"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not [c for c in checks.values() if c["status"] == "fail"]
        assert checks["psi-n-verified"]["status"] == "vacuous"
        assert checks["psi-n-verified"]["detail"].startswith("psi_n is undefined: the pivot s has odd order 3 with t")
        assert checks["psi-verified"]["status"] == "pass"

    def test_indeterminate_check_gives_indeterminate_verdict(self, capsys):
        # every other check decides, but the census trips its node guard
        argv = ["verify", str(ROOT / "diagrams" / "frontier" / "triangle578.cox"), "--radius", "9", "--max-nodes", "10"]
        assert main(argv) == EXIT_INDETERMINATE
        out = capsys.readouterr().out
        assert "[INDETERMINATE] census-verified: stabilizer search exceeded 10 nodes\n" in out
        assert "[         PASS] bipartite-edges" in out
        assert out.endswith("verdict: INDETERMINATE\n")
        assert main([*argv, "--format", "json"]) == EXIT_INDETERMINATE
        assert json.loads(capsys.readouterr().out)["verdict"] == "INDETERMINATE"

    def test_failing_check_gives_inconclusive_verdict(self, a2_file, capsys, monkeypatch):
        # every left multiplication is built as the diagram swap, an automorphism that
        # breaks the identity field it was asked to walk: the census still decides, but
        # a failed check is no evidence
        swap = (1, 0)

        def swapped(ball, v, field):
            return BallAutomorphism(diagram_aut(ball, swap).vmap, ball.radius, field)

        monkeypatch.setattr(coxaut.checks, "walked_map", swapped)
        assert main(["verify", a2_file, "--radius", "4"]) == 1
        out = capsys.readouterr().out
        assert "[         FAIL] left-mult-identity-field: left_mult((0,)) field is not the constant identity\n" in out
        assert "[         PASS] census-verified" in out
        assert out.endswith("verdict: INCONCLUSIVE\n")

    def test_radius_zero(self, a2_file, capsys):
        assert main(["verify", a2_file, "--radius", "0"]) == 0

    def test_json_report(self, a2_file, capsys):
        assert main(["verify", a2_file, "--radius", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "DISCRETE-EVIDENCE"
        assert any(c["name"] == "census-verified" for c in payload["checks"])

    @pytest.mark.parametrize("probe", ["-1", "15"])
    def test_probe_out_of_range_rejected_before_the_ball(self, probe, capsys, monkeypatch):
        def no_ball(*args, **kwargs):
            raise AssertionError("the ball was built")

        monkeypatch.setattr(coxaut.checks, "build_ball", no_ball)
        flexible = str(ROOT / "diagrams" / "flexible.cox")
        assert main(["verify", flexible, "--radius", "14", "--probe", probe]) == 2
        assert capsys.readouterr().err == "error: probe radius must lie between 0 and the ball radius\n"


class TestErrorsAndGuards:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["ball", str(tmp_path / "nope.cox")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cox"
        path.write_text("gens a b\npair a a 3\n")
        assert main(["ball", str(path)]) == 2

    @pytest.mark.parametrize("argv", [["ball", "--format", "json"], ["reduce", "e"]])
    def test_generator_named_e_is_an_input_error(self, argv, tmp_path, capsys):
        path = tmp_path / "e.cox"
        path.write_text("gens e f\npair e f 3\n")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr().err.startswith("error: a generator may not be named 'e'")

    def test_env_guard_trips(self, branched_file, capsys, monkeypatch):
        monkeypatch.setenv("COXAUT_MAX_VERTICES", "3")
        assert main(["ball", branched_file, "--radius", "4"]) == 3
        assert "INDETERMINATE" in capsys.readouterr().err

    def test_flag_overrides_env(self, branched_file, capsys, monkeypatch):
        monkeypatch.setenv("COXAUT_MAX_VERTICES", "3")
        assert main(["ball", branched_file, "--radius", "4", "--max-vertices", "1000"]) == 0

    @pytest.mark.parametrize("command,flag", [(command, flag) for command, flags in READS.items() for flag in flags])
    def test_malformed_env_guard_is_named(self, command, flag, capsys, monkeypatch):
        variable = cli.GUARDS[flag][0]
        monkeypatch.setenv(variable, "abc")
        assert main(guard_free_argv(command)) == 2
        assert capsys.readouterr() == ("", f"error: guard {variable} must be an integer, got 'abc'\n")

    @pytest.mark.parametrize("command", READS)
    def test_help_lists_the_guards_read(self, command, capsys):
        code, captured = exit_or_result(lambda: main([command, "-h"]), capsys)
        assert code == 0
        assert [flag for flag in cli.GUARDS if flag in captured.out] == list(READS[command])

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_guard_flag_is_unrecognized(self, command, flag, capsys):
        code, captured = exit_or_result(lambda: main([*guard_free_argv(command), flag, "5"]), capsys)
        assert code == 2 and captured.out == ""
        assert captured.err.endswith(f"coxaut {command}: error: unrecognized arguments: {flag} 5\n")

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_guard_variable_is_ignored(self, command, flag, capsys, monkeypatch):
        argv = guard_free_argv(command)
        expected = main(argv), capsys.readouterr()
        for value in ("abc", "0", "-5"):
            monkeypatch.setenv(cli.GUARDS[flag][0], value)
            assert (main(argv), capsys.readouterr()) == expected

    def test_nonpositive_guard_rejected(self, a2_file, capsys):
        assert main(["ball", a2_file, "--max-vertices", "0"]) == 2

    @pytest.mark.parametrize("command,flag", [(command, flag) for command, flags in READS.items() for flag in flags])
    def test_nonpositive_guard_names_its_source(self, command, flag, capsys, monkeypatch):
        # the variable when the value came from it, the flag when the flag was given
        variable = cli.GUARDS[flag][0]
        monkeypatch.setenv(variable, "-3")
        assert main(guard_free_argv(command)) == 2
        assert capsys.readouterr() == ("", f"error: guard {variable} must be positive, got -3\n")
        assert main([*guard_free_argv(command), flag, "0"]) == 2
        assert capsys.readouterr() == ("", f"error: guard {flag} must be positive, got 0\n")

    def test_census_guard_exit_code(self, branched_file, capsys):
        assert main(["stabilizer", branched_file, "--radius", "4", "--probe", "3", "--max-nodes", "1"]) == 3

    def test_listing_counts_against_the_census_guard(self, branched_file, capsys):
        # 95 search nodes and 4 entries: listing them needs 99 nodes
        argv = ["stabilizer", branched_file, "--radius", "4", "--probe", "2", "--max-nodes"]
        assert main([*argv, "98"]) == 3
        assert capsys.readouterr().err == "INDETERMINATE: stabilizer listing exceeded 98 nodes\n"
        assert main([*argv, "98", "--format", "json"]) == 3
        assert capsys.readouterr().out == ""
        assert main([*argv, "99"]) == 0

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unexpected_exception_exits_internal(self, a2_file, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_check_flexible", boom)
        assert main(["check-flexible", a2_file]) == EXIT_INTERNAL == 4
        assert capsys.readouterr().err == "error: internal: RuntimeError: boom\n"

    def test_a_command_builds_only_its_own_parser(self, a2_file, capsys, monkeypatch):
        parsers, tops = [], []
        init, build_parser = argparse.ArgumentParser.__init__, cli.build_parser
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: parsers.append(1) or init(self, *a, **k))
        monkeypatch.setattr(cli, "build_parser", lambda: tops.append(1) or build_parser())
        cli._command_parser.cache_clear()

        def built(argv):
            parsers.clear()
            exit_or_result(lambda: main(argv), capsys)
            return len(parsers)

        assert built(["reduce", a2_file, "a b a b"]) == 1  # the first call of a command: its parser alone
        assert built(["reduce", a2_file, "a b"]) == 0  # a repeated call: none
        assert built(["ball", a2_file, "--bogus"]) == 1
        assert built(["ball", a2_file, "-h"]) == 0
        assert tops == []
        top = 1 + len(cli.COMMANDS)  # build_parser: the top-level parser and one subparser per command
        assert built(["-h"]) == top
        assert built(["bal", a2_file]) == top
        assert len(tops) == 2

    def test_diagram_search_guard_exit_code(self, tmp_path, capsys, monkeypatch):
        # no rank cap: flexibility needs only the first two automorphisms of the
        # free rank-10 diagram, and verify needs one extension search per strong
        # generator; an extension places all 10 generators, so a 9-node guard
        # trips by construction
        monkeypatch.setattr(coxaut.system, "DEFAULT_MAX_NODES", 1000)
        path = tmp_path / "free10.cox"
        path.write_text("gens " + " ".join(f"g{i}" for i in range(10)) + "\n")
        assert main(["check-flexible", str(path)]) == 0
        assert capsys.readouterr().out == "FLEXIBLE pivot=g0 phi=(g8 g9)\n"
        monkeypatch.setattr(coxaut.system, "DEFAULT_MAX_NODES", 9)
        assert main(["verify", str(path), "--radius", "3"]) == EXIT_INDETERMINATE
        assert capsys.readouterr().err == "INDETERMINATE: diagram automorphism search exceeded 9 nodes\n"

    def test_free_rank10_verify_decides(self, capsys):
        assert main(["verify", FREE10, "--radius", "1", "--format", "json"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert "order-3628800" in checks["diagram-aut-field"]["detail"]

    def test_deep_census_is_not_a_violation(self, tmp_path, capsys):
        # the census on the 1 534-vertex ball at r=9 once died of a
        # RecursionError; on this 3 070-vertex ball it searches without
        # recursion until its node guard trips
        path = tmp_path / "free3.cox"
        path.write_text("gens a b c\n")
        assert main(["verify", str(path), "--radius", "10"]) == EXIT_INDETERMINATE
        out = capsys.readouterr().out
        assert "[INDETERMINATE] census-verified: stabilizer search exceeded 1000000 nodes" in out
        assert "verdict: INDETERMINATE" in out


# -- dispatch ------------------------------------------------------------------

# each command's positionals after the file, and its own options with valid values
COMMANDS = {
    "check-flexible": ([], []),
    "reduce": (["a b a"], []),
    "ball": ([], ["--radius", "2", "--dot", "x.dot"]),
    "cycles": ([], ["--radius", "2", "--max-length", "4"]),
    "exotic": ([], ["--radius", "2", "--n", "2"]),
    "stabilizer": ([], ["--radius", "2", "--probe", "1"]),
    "verify": ([], ["--radius", "2", "--probe", "1"]),
}


# each guard given abbreviated, in full, or with "="
GUARD_ARGS = {"--max-states": ["--max-st", "5"], "--max-vertices": ["--max-v", "7"], "--max-nodes": ["--max-nodes=9"]}


def dispatch_cases():
    for command, (words, options) in COMMANDS.items():
        args = ["diagram.cox", *words]
        yield [command, *args]
        yield [command, *args, *options]
        yield [command, *options, *args]
        yield [command, *options[:2], *args, *options[2:]]
        yield [command, *args, *(f"{key}={value}" for key, value in zip(options[::2], options[1::2]))]
        yield [command, "--format=json", *args, *(arg for flag in READS[command] for arg in GUARD_ARGS[flag])]
        yield [command, "--format=json", *args, "--max-st", "5", "--max-v", "7", "--max-nodes=9"]  # some unread
        yield [command, *args, "--rad", "3"]  # an abbreviation; unrecognized without --radius
        yield [command, *args, "--radius", "x"]
        yield [command, *args, "--format", "xml"]
        yield [command, *args, "--max-", "5"]  # ambiguous
        yield [command, *args, "--bogus"]
        yield [command, *args, "extra"]
        yield [command]
    yield []
    yield ["--format", "json", "ball", "diagram.cox"]
    yield ["bal", "diagram.cox"]


def exit_or_result(call, capsys):
    try:
        result = call()
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


class TestDispatch:
    """main gives argv[1:] to the parser of the command argv[0] names; the
    reference is the top-level parser, whose subparser action parses argv[1:]
    a second time."""

    @pytest.fixture()
    def seen(self, monkeypatch):
        seen = []
        for command in COMMANDS:
            monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda args: seen.append(args) or 0)
        return seen

    @pytest.mark.parametrize("argv", list(dispatch_cases()), ids=" ".join)
    def test_same_namespace_or_same_exit(self, argv, seen, capsys):
        expected, reference = exit_or_result(lambda: cli.build_parser().parse_args(argv), capsys)
        code, captured = exit_or_result(lambda: main(argv), capsys)
        if isinstance(expected, argparse.Namespace):
            assert code == 0 and seen == [expected]
            return
        assert code == expected == 2 and not seen
        assert captured.out == reference.out == ""
        message = reference.err.splitlines()[-1]
        if message.startswith("coxaut: error: unrecognized arguments: "):
            # the one change: the command's parser reports what it does not recognize
            parser = cli.build_parser().commands[argv[0]]
            assert captured.err == parser.format_usage() + message.replace("coxaut:", parser.prog + ":", 1) + "\n"
        else:
            assert captured.err == reference.err

    @pytest.mark.parametrize("argv", [["-h"], *([command, "-h"] for command in COMMANDS), ["ball", "diagram.cox", "--help"]])
    def test_help_is_unchanged(self, argv, capsys):
        expected, reference = exit_or_result(lambda: cli.build_parser().parse_args(argv), capsys)
        code, captured = exit_or_result(lambda: main(argv), capsys)
        assert code == expected == 0
        assert captured.out == reference.out
        assert reference.out.startswith("usage: coxaut " + ("" if argv == ["-h"] else argv[0] + " "))

    def test_argv_none_reads_sys_argv(self, a2_file, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["coxaut", "reduce", a2_file, "a b a b"])
        assert main() == 0
        assert capsys.readouterr().out == "canonical: b a\nlength: 2\nm-class size: 1\n"
        monkeypatch.setattr(sys, "argv", ["coxaut", "ball", a2_file, "--bogus"])
        code, captured = exit_or_result(main, capsys)
        assert code == 2
        assert captured.err.startswith("usage: coxaut ball ")
        assert captured.err.endswith("\ncoxaut ball: error: unrecognized arguments: --bogus\n")


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/tracing.py looks these up with getattr and no default, so a
    # name that moves out of coxaut breaks every --trace 1 run
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing

    names = [f"{module}.{fn}" for module, functions in tracing.SPANS.items() for fn in functions]
    names += ["automorphisms.FactoredAutomorphism.to_ball", "checks.CheckResult", "words.LimitExceeded"]
    names += ["automorphisms.DEFAULT_MAX_NODES"]

    def resolves(name):
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"coxaut.{module}"))
        except AttributeError:
            return False
        return True

    assert [name for name in names if not resolves(name)] == []


def test_benchmark_tracer_runs_verify(capsys, monkeypatch):
    # perfbench's --trace 1 wraps coxaut functions by name; installing its
    # tracer fails when a name in tracing.SPANS no longer resolves
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root))
    from perfbench.tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        code = cli.main(["verify", str(root / "diagrams" / "a2.cox"), "--radius", "3", "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["checks"]
    metrics = tracer.layer_metrics()
    assert metrics["ball.edges"] > 0
    assert metrics["automorphisms.map_build.self_s"] > 0


def test_import_generates_no_dataclass_code():
    # every command is one cold process, and a @dataclass execs generated
    # methods at import; a fresh interpreter must never load dataclasses
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, coxaut.cli; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- fuzz ----------------------------------------------------------------------

TOKENS = st.sampled_from(["gens", "pair", "a", "b", "c", "e", "2", "3", "7", "inf", "1", "0", "-2", "x", "#"])
DIAGRAM_TEXTS = st.one_of(st.text(), st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=6).map("\n".join))


@given(DIAGRAM_TEXTS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fuzz_parse_system_raises_only_parse_error(text):
    try:
        parse_system(text)
    except ParseError:
        pass


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "diagram.cox"


@given(
    random_systems(max_rank=4, finite_orders=(2, 3, 4, 5, 6, 7)),
    st.integers(0, 3),
    st.lists(st.integers(0, 3), max_size=8),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_fuzz_every_subcommand_exits_with_a_documented_code(fuzz_file, system, radius, letters):
    pairs = [f"pair {system.names[s]} {system.names[t]} {m}" for s, t, m in system.finite_pairs()]
    fuzz_file.write_text("\n".join(["gens " + " ".join(system.names), *pairs]) + "\n")
    word = " ".join(system.names[x % system.rank] for x in letters) or "e"
    r = ["--radius", str(radius)]
    commands = [["check-flexible"], ["reduce", word], ["ball", *r], ["cycles", *r], ["exotic", *r]]
    commands += [["exotic", *r, "--n", "2"], ["stabilizer", *r], ["verify", *r]]
    for command, *rest in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(fuzz_file), "--format", "json", *rest])
        assert code in (0, 1, 2, 3), (system, command, rest, err.getvalue())
        if code == 0:
            json.loads(out.getvalue())
