import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebbling import Demand, Graph, cover_pebbling_number, pebbling_number
from pebbling.cli import main
from pebbling.formats import parse_instance, write_instance

P3 = """\
vertices v1 v2 v3
edge v1 v2
edge v2 v3
config v1 7
demand_kind unit
"""

P3_SHORT = P3.replace("config v1 7", "config v1 6")

FIG1_X4C = "2 3\n1 2 3 4\n3 4 5 6\n5 6 7 8\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3)
    return str(path)


@pytest.fixture
def p3_short_file(tmp_path):
    path = tmp_path / "p3s.txt"
    path.write_text(P3_SHORT)
    return str(path)


class TestSolve:
    def test_solvable_emits_certificate(self, p3_file, capsys):
        assert main(["solve", "--instance", p3_file]) == 0
        out = capsys.readouterr().out
        assert out == "move v1 v2 3\nmove v2 v3 1\n"

    def test_unsolvable_names_witness(self, p3_short_file, capsys):
        assert main(["solve", "--instance", p3_short_file]) == 1
        err = capsys.readouterr().err
        assert "witness: v3" in err

    def test_json_report(self, p3_file, capsys):
        assert main(["solve", "--instance", p3_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "solvable"
        assert doc["certificate"] == [
            {"from": "v1", "to": "v2", "count": 3},
            {"from": "v2", "to": "v3", "count": 1},
        ]

    def test_solve_then_verify(self, p3_file, tmp_path, capsys):
        main(["solve", "--instance", p3_file])
        cert = tmp_path / "cert.txt"
        cert.write_text(capsys.readouterr().out)
        assert main(["verify", "--instance", p3_file, "--certificate", str(cert)]) == 0

    def test_budget_exit_code(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(
            # C_6 with (21, 0, ...): no root shortcut and no pendant tree to fold
            "vertices a b c d e f\nedge a b\nedge b c\nedge c d\nedge d e\nedge e f\n"
            "edge f a\nconfig a 21\ndemand_kind unit\n"
        )
        assert main(["solve", "--instance", str(path), "--node-cap", "5"]) == 3


class TestReachAndCanonical:
    def test_reach(self, p3_file):
        assert main(["reach", "--instance", p3_file, "--target", "v3"]) == 0

    def test_reach_reads_the_instance_once(self, p3_file, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_instance(text)

        monkeypatch.setattr("pebbling.cli.parse_instance", counting)
        assert main(["reach", "--instance", p3_file, "--target", "v3"]) == 0
        assert len(calls) == 1

    def test_reach_unreachable(self, tmp_path):
        path = tmp_path / "i.txt"
        path.write_text("vertices a b\nedge a b\nconfig a 1\n")
        assert main(["reach", "--instance", str(path), "--target", "b"]) == 1

    def test_canonical(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("vertices a b c\nedge a b\nedge b c\nconfig a 2\n")
        assert main(["canonical", "--instance", str(path)]) == 1
        assert "unreachable: ['c']" in capsys.readouterr().err


class TestNumbers:
    def test_number_unit(self, p3_file, capsys):
        assert main(["number", "--instance", p3_file, "--demand-kind", "unit"]) == 0
        assert capsys.readouterr().out == "7\n"

    def test_number_reach(self, p3_file, capsys):
        assert main(["number", "--instance", p3_file, "--demand-kind", "reach:v3"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_number_zero_demand_is_usage_error(self, tmp_path):
        path = tmp_path / "i.txt"
        path.write_text("vertices a b\nedge a b\n")
        assert main(["number", "--instance", str(path)]) == 2

    def test_pi(self, tmp_path, capsys):
        path = tmp_path / "p4.txt"
        path.write_text(
            "vertices a b c d\nedge a b\nedge b c\nedge c d\ndemand_kind unit\n"
        )
        assert main(["pi", "--instance", str(path)]) == 0
        assert capsys.readouterr().out == "8\n"

    def test_number_and_pi_json_name_their_command(self, p3_file, capsys):
        for command, value in (("number", 7), ("pi", 4)):
            assert main([command, "--instance", p3_file, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["command"] == command and doc["value"] == value

    def test_number_and_pi_json_count_solver_calls(self, p3_file, capsys):
        g = Graph.path(3)
        for command, result in (
            ("number", cover_pebbling_number(g, Demand.unit(3))),
            ("pi", pebbling_number(g)),
        ):
            assert main([command, "--instance", p3_file, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["configs_checked"] == result.configs_checked


class TestOracleVerifyGamma:
    def test_oracle_agrees(self, p3_file, p3_short_file):
        assert main(["oracle", "--instance", p3_file]) == 0
        assert main(["oracle", "--instance", p3_short_file]) == 1

    def test_oracle_keeps_the_library_state_cap(self, p3_short_file, monkeypatch, capsys):
        # the default --node-cap (10^7) must not lift the oracle's state cap
        monkeypatch.setattr("pebbling.cli.DEFAULT_STATE_CAP", 2)
        assert main(["oracle", "--instance", p3_short_file]) == 3
        assert "more than 2 configurations" in capsys.readouterr().err

    def test_verify_invalid_names_vertex(self, p3_short_file, tmp_path, capsys):
        cert = tmp_path / "c.txt"
        cert.write_text("move v1 v2 3\nmove v2 v3 1\n")
        assert main(["verify", "--instance", p3_short_file, "--certificate", str(cert)]) == 1
        assert "violated_vertex: v1" in capsys.readouterr().err

    def test_verify_non_edge_is_invalid(self, p3_file, tmp_path):
        cert = tmp_path / "c.txt"
        cert.write_text("move v1 v3 1\n")
        assert main(["verify", "--instance", p3_file, "--certificate", str(cert)]) == 1

    def test_gamma_exact(self, p3_short_file, capsys):
        assert main(["gamma", "--instance", p3_short_file, "--target", "v3"]) == 0
        assert capsys.readouterr().out == "-1/4\n"

    def test_gamma_json_exact_integers(self, p3_short_file, capsys):
        main(["gamma", "--instance", p3_short_file, "--target", "v3", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["numerator"] == -1 and doc["log2_denominator"] == 2


class TestReduce:
    def test_x4c_cover_round_trip(self, tmp_path, capsys):
        x4c = tmp_path / "f.x4c"
        x4c.write_text(FIG1_X4C)
        assert main(["reduce", "x4c-cover", "--x4c", str(x4c)]) == 0
        text = capsys.readouterr().out
        inst = parse_instance(text)
        assert inst.graph.n == 19
        assert write_instance(inst) == text

    def test_x4c_number_report(self, tmp_path, capsys):
        x4c = tmp_path / "f.x4c"
        x4c.write_text(FIG1_X4C)
        assert main(["reduce", "x4c-number", "--x4c", str(x4c), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threshold"] == 77 and doc["target"] == "v"
        assert doc["vertex_roles"]["b1'''"] == "B'''"
        reparsed = parse_instance(doc["instance_text"])
        assert reparsed.graph.n == 21

    def test_cover_to_canonical(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        path.write_text("vertices a b\nedge a b\nconfig a 2\ndemand_kind unit\n")
        assert main(["reduce", "cover-to-canonical", "--instance", str(path)]) == 0
        inst = parse_instance(capsys.readouterr().out)
        assert inst.graph.n == 9
        assert inst.demand_kind == "reach:w2"

    def test_reduced_solve_pipeline(self, tmp_path, capsys):
        x4c = tmp_path / "f.x4c"
        x4c.write_text(FIG1_X4C)
        main(["reduce", "x4c-cover", "--x4c", str(x4c)])
        reduced = tmp_path / "red.txt"
        reduced.write_text(capsys.readouterr().out)
        assert main(["solve", "--instance", str(reduced)]) == 0


class TestUsageErrors:
    def test_missing_instance(self):
        assert main(["solve"]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_parse_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("vertices a b\nedge a b\nconfig a x\n")
        assert main(["solve", "--instance", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_seed_flag_removed(self, p3_file):
        assert main(["solve", "--instance", p3_file, "--seed", "1"]) == 2

    def test_x4c_element_in_no_set(self, tmp_path, capsys):
        # elements 7 and 8 lie in no set; this used to end in a traceback
        # and exit 1, the "unsolvable" code
        x4c = tmp_path / "u.x4c"
        x4c.write_text("2 3\n1 2 3 4\n1 2 3 5\n1 2 3 6\n")
        assert main(["reduce", "x4c-cover", "--x4c", str(x4c)]) == 2
        err = capsys.readouterr().err
        assert err == "error: elements 7, 8 lie in no set\n"

    def test_node_cap_only_where_a_search_reads_it(self, p3_file, capsys):
        # the number sweeps never search, so they refuse the flag
        assert main(["number", "--instance", p3_file, "--node-cap", "5"]) == 2
        assert "--node-cap" in capsys.readouterr().err

    def test_negative_node_cap(self, p3_file, capsys):
        # a negative cap used to start the search and end in exit 3
        for command in ("solve", "oracle"):
            assert main([command, "--instance", p3_file, "--node-cap", "-1"]) == 2
            assert "argument --node-cap" in capsys.readouterr().err

    def test_unknown_vertex_name(self, p3_file, tmp_path, capsys):
        # printed as the name, not as the repr of a KeyError
        cert = tmp_path / "c.txt"
        cert.write_text("move v1 zz 1\n")
        for argv in (
            ["reach", "--instance", p3_file, "--target", "zz"],
            ["verify", "--instance", p3_file, "--certificate", str(cert)],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: unknown vertex name 'zz'\n"

    def test_missing_file(self):
        assert main(["solve", "--instance", "/nonexistent/file.txt"]) == 2

    def test_directory_argument(self, p3_file, tmp_path, capsys):
        # a directory used to raise IsADirectoryError: a traceback and exit 1
        for argv in (
            ["solve", "--instance", str(tmp_path)],
            ["verify", "--instance", p3_file, "--certificate", str(tmp_path)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


# tokens a mutation may put into an input file or onto the command line;
# counts stay small so that every number sweep ends quickly
TOKENS = (
    "v1", "v2", "v3", "zz", "0", "1", "2", "3", "-1", "1.5", "x", "", "#",
    "vertices", "edge", "config", "demand", "demand_kind", "unit", "reach:v2",
    "reach:zz", "move",
)
COMMANDS = (
    ["solve"],
    ["reach", "--target"],
    ["canonical"],
    ["number"],
    ["number", "--demand-kind"],
    ["pi"],
    ["oracle"],
    ["verify"],
    ["gamma", "--target"],
    ["reduce", "x4c-cover"],
    ["reduce", "x4c-number"],
    ["reduce", "cover-to-canonical"],
)


@st.composite
def mutated(draw, text: str) -> str:
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("drop", "copy", "token", "line", "char")))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "line" or not lines:
            lines.insert(at, draw(st.lists(st.sampled_from(TOKENS), max_size=4)))
        elif op == "drop":
            del lines[at]
        elif op == "copy":
            lines.insert(at, list(lines[at]))
        elif op == "token":
            line = lines[at] or [""]
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(TOKENS))
            lines[at] = line
        else:
            joined = " ".join(lines[at])
            cut = draw(st.integers(0, len(joined)))
            joined = joined[:cut] + draw(st.characters(exclude_categories=("Cs",))) + joined[cut:]
            lines[at] = joined.split(" ")
    return "\n".join(" ".join(line) for line in lines) + "\n"


class TestFuzz:
    """Any input text ends in a defined exit code, never in a traceback."""

    @given(
        st.sampled_from(COMMANDS),
        st.sampled_from(TOKENS),
        mutated(P3),
        mutated("move v1 v2 3\nmove v2 v3 1\n"),
        mutated(FIG1_X4C),
        st.sampled_from(("0", "50", "2000")),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_subcommand(self, command, token, instance, certificate, x4c, cap, as_json):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, text in (("i", instance), ("c", certificate), ("x", x4c)):
                paths[name] = os.path.join(tmp, name)
                with open(paths[name], "w", encoding="utf-8") as handle:
                    handle.write(text)
            argv = [*command, token] if command[-1].startswith("--") else list(command)
            argv += ["--instance", paths["i"]]
            if command[0] in ("solve", "reach", "canonical", "oracle"):
                argv += ["--node-cap", cap]
            if command[0] == "verify":
                argv += ["--certificate", paths["c"]]
            if command[0] == "reduce":
                argv += ["--x4c", paths["x"]]
            if as_json:
                argv.append("--json")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2, 3)
