import pytest

from pebbling import Configuration, Demand, Graph, MoveList, X4CInstance
from pebbling.formats import (
    FormatError,
    Instance,
    certificate_to_movelist,
    parse_certificate,
    parse_instance,
    parse_x4c,
    write_certificate,
    write_instance,
)

P3_TEXT = """\
vertices v1 v2 v3
edge v1 v2
edge v2 v3
config v1 7
demand_kind unit
"""


class TestInstanceParsing:
    def test_basic(self):
        inst = parse_instance(P3_TEXT)
        assert inst.names == ("v1", "v2", "v3")
        assert inst.graph == Graph.path(3)
        assert inst.config.counts == (7, 0, 0)
        assert inst.demand == Demand.unit(3)
        assert inst.demand_kind == "unit"

    def test_reach_kind(self):
        inst = parse_instance(P3_TEXT.replace("demand_kind unit", "demand_kind reach:v3"))
        assert inst.demand.counts == (0, 0, 1)

    def test_explicit_demand_lines(self):
        text = P3_TEXT.replace("demand_kind unit", "demand v2 2")
        inst = parse_instance(text)
        assert inst.demand.counts == (0, 2, 0)
        assert inst.demand_kind is None

    def test_comments_and_blanks_ignored(self):
        inst = parse_instance("# a comment\n\n" + P3_TEXT)
        assert inst.config.counts == (7, 0, 0)

    def test_unknown_vertex_names_line(self):
        with pytest.raises(FormatError) as err:
            parse_instance(P3_TEXT + "config nope 1\n")
        assert err.value.line == 6

    def test_edge_before_vertices(self):
        with pytest.raises(FormatError) as err:
            parse_instance("edge a b\nvertices a b\n")
        assert err.value.line == 1

    def test_demand_kind_before_vertices(self):
        with pytest.raises(FormatError) as err:
            parse_instance("demand_kind unit\nvertices a b\nedge a b\nconfig a 3\n")
        assert err.value.line == 1
        assert "vertices line must come first" in str(err.value)

    def test_disconnected_rejected(self):
        with pytest.raises(FormatError):
            parse_instance("vertices a b c\nedge a b\n")

    def test_demand_kind_conflict(self):
        with pytest.raises(FormatError):
            parse_instance(P3_TEXT + "demand v1 1\n")

    def test_bad_integer_names_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_instance(P3_TEXT.replace("config v1 7", "config v1 seven"))
        assert err.value.line == 4

    def test_negative_config_names_its_line(self):
        with pytest.raises(FormatError) as err:
            parse_instance(P3_TEXT.replace("demand_kind unit", "config v2 -1"))
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "token", ["1_0", "+4", "\u0664", "\uff14", "-", "--1", "-+1", "4.0", "0x4"]
    )
    def test_integer_fields_take_ascii_digits_only(self, token):
        # int() alone would read "1_0" as 10, and "+4" and Arabic-Indic "٤"
        # as 4; each is refused at its own line, in every integer field
        cases = [
            (parse_instance, P3_TEXT.replace("config v1 7", f"config v1 {token}"), 4,
             "pebble count"),
            (parse_instance, P3_TEXT.replace("demand_kind unit", f"demand v2 {token}"), 5,
             "demand count"),
            (parse_certificate, f"move a b 1\nmove b c {token}\n", 2, "move count"),
            (parse_x4c, f"1 {token}\n1 2 3 4\n", 1, "m"),
            (parse_x4c, f"1 1\n1 2 {token} 4\n", 2, "element"),
        ]
        for parse, text, line, what in cases:
            with pytest.raises(FormatError) as err:
                parse(text)
            assert str(err.value) == f"line {line}: {what} must be an integer, got {token!r}"

    def test_negative_counts_keep_their_messages(self):
        for parse, text, message in [
            (parse_instance, P3_TEXT.replace("config v1 7", "config v1 -7"),
             "line 4: pebble counts are non-negative"),
            (parse_instance, P3_TEXT.replace("demand_kind unit", "demand v2 -2"),
             "line 5: demands are non-negative"),
            (parse_certificate, "move a b -1\n", "line 1: move counts are at least 1"),
        ]:
            with pytest.raises(FormatError) as err:
                parse(text)
            assert str(err.value) == message

    def test_unknown_reach_target_names_demand_kind_line(self):
        text = P3_TEXT.replace("demand_kind unit", "config v2 1\ndemand_kind reach:zz")
        with pytest.raises(FormatError) as err:
            parse_instance(text)
        assert err.value.line == 6

    def test_bad_demand_kind_names_its_line(self):
        with pytest.raises(FormatError) as err:
            parse_instance(P3_TEXT.replace("demand_kind unit", "demand_kind bogus"))
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "edge_lines, line, message",
        [
            ("edge x v2\n", 2, "undeclared vertex 'x'"),
            ("edge v1 x\n", 2, "undeclared vertex 'x'"),
            ("edge x y\n", 2, "undeclared vertex 'x'"),  # the first name first
            ("edge v1\n", 2, "edge line needs exactly two names"),
            ("edge v1 v2 v3\n", 2, "edge line needs exactly two names"),
            ("edge v2 v2\n", 2, "self-loops are not allowed"),
            # comment and blank lines are counted
            ("# a comment\n\n  # indented\nedge v1 v2\nedge v2 zz\n", 6,
             "undeclared vertex 'zz'"),
        ],
    )
    def test_edge_line_errors(self, edge_lines, line, message):
        with pytest.raises(FormatError) as err:
            parse_instance("vertices v1 v2 v3\n" + edge_lines)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_repeated_edge_line_gives_one_edge(self):
        inst = parse_instance(P3_TEXT + "edge v1 v2\n\tedge  v2 v1 \n")
        assert inst.graph.edges == ((0, 1), (1, 2))


class TestInstanceWriting:
    def test_round_trip_identical(self):
        inst = parse_instance(P3_TEXT)
        text = write_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert write_instance(again) == text  # byte stable

    def test_writer_sorts_names(self):
        inst = Instance(
            ("b", "a"),
            Graph(2, [(0, 1)]),
            Configuration((2, 0)),
            Demand.unit(2),
            "unit",
        )
        text = write_instance(inst)
        assert text.splitlines()[0] == "vertices a b"
        assert "config b 2" in text

    def test_zero_entries_omitted(self):
        inst = parse_instance(P3_TEXT)
        lines = write_instance(inst).splitlines()
        assert "config v2 0" not in lines
        assert sum(1 for line in lines if line.startswith("config")) == 1


class TestCertificates:
    def test_round_trip(self):
        inst = parse_instance(P3_TEXT)
        ml = MoveList({(0, 1): 3, (1, 2): 1})
        text = write_certificate(inst, ml)
        records = parse_certificate(text)
        assert certificate_to_movelist(inst, records) == ml

    def test_duplicate_pair_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_certificate("move a b 1\nmove a b 2\n")
        assert err.value.line == 2

    def test_zero_count_rejected(self):
        with pytest.raises(FormatError):
            parse_certificate("move a b 0\n")

    def test_malformed_line(self):
        with pytest.raises(FormatError):
            parse_certificate("shift a b 1\n")


class TestX4CFormat:
    def test_round_trip(self):
        inst = X4CInstance(
            2, (frozenset({1, 2, 3, 4}), frozenset({3, 4, 5, 6}), frozenset({5, 6, 7, 8}))
        )
        assert parse_x4c("2 3\n1 2 3 4\n3 4 5 6\n5 6 7 8\n") == inst

    def test_wrong_set_count(self):
        with pytest.raises(FormatError):
            parse_x4c("1 2\n1 2 3 4\n")

    def test_invalid_instance_reported(self):
        # a set's fault names the set's own line, past any comment line
        for text, line in [
            ("1 1\n1 2 3 9\n", 2),
            ("2 2\n1 2 3 4\n5 6 7 9\n", 3),
            ("2 2\n1 2 3 4\n# the duplicate\n5 5 6 7\n", 4),
        ]:
            with pytest.raises(FormatError) as err:
                parse_x4c(text)
            assert err.value.line == line, text
