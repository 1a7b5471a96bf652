import pytest

from pebbling import (
    Configuration,
    Demand,
    DimensionMismatch,
    Graph,
    MalformedInstance,
    NotACover,
    X4CInstance,
    cover_certificate_from_exact_cover,
    is_cover_solvable,
    is_reachable,
    number_witness_config,
    oracle_solvable,
    pebbling_number,
    reduce_cover_to_canonical,
    reduce_to_cover_solvability,
    reduce_to_number_threshold,
    verify_solution,
    x4c_solve,
)
from universe import collapse_leaf

FIG1 = X4CInstance(
    2, (frozenset({1, 2, 3, 4}), frozenset({3, 4, 5, 6}), frozenset({5, 6, 7, 8}))
)
NO_COVER = X4CInstance(
    2, (frozenset({1, 2, 3, 4}), frozenset({3, 4, 5, 6}), frozenset({4, 5, 7, 8}))
)
# Slack 2 (m - n = 2) with no exact cover: the first such n = 2 family that
# bench/inputs.py's _draw_sets draws from random.Random(1).
SLACK2_NO = X4CInstance(
    2,
    (
        frozenset({1, 2, 3, 6}),
        frozenset({2, 4, 6, 7}),
        frozenset({1, 5, 6, 8}),
        frozenset({2, 5, 6, 8}),
    ),
)


class TestX4C:
    def test_figure_instance_cover(self):
        assert x4c_solve(FIG1) == [0, 2]

    def test_single_set(self):
        assert x4c_solve(X4CInstance(1, (frozenset({1, 2, 3, 4}),))) == [0]

    def test_no_cover(self):
        assert x4c_solve(NO_COVER) is None

    def test_large_cover_stays_clear_of_the_recursion_limit(self):
        # 1,200 pairwise disjoint sets: one choice each, far past the
        # interpreter's default recursion limit of 1,000
        sets = tuple(frozenset(range(4 * i + 1, 4 * i + 5)) for i in range(1200))
        assert x4c_solve(X4CInstance(1200, sets)) == list(range(1200))

    def test_rejects_short_family(self):
        with pytest.raises(MalformedInstance):
            X4CInstance(2, (frozenset({1, 2, 3, 4}),))

    def test_rejects_wrong_set_size(self):
        with pytest.raises(MalformedInstance):
            X4CInstance(1, (frozenset({1, 2, 3}),))

    def test_rejects_out_of_universe(self):
        with pytest.raises(MalformedInstance):
            X4CInstance(1, (frozenset({1, 2, 3, 9}),))


class TestCoverReduction:
    def test_figure_shape(self):
        red = reduce_to_cover_solvability(FIG1)
        assert red.graph.n == 19 == 3 * 2 + 4 * 3 + 1
        assert red.config.counts[red.index_of("v")] == 2
        assert red.demand == Demand.unit(19)

    def test_rejects_element_in_no_set(self):
        inst = X4CInstance(
            2,
            (frozenset({1, 2, 3, 4}), frozenset({1, 2, 3, 5}), frozenset({1, 2, 3, 6})),
        )
        with pytest.raises(MalformedInstance, match="elements 7, 8 lie in no set"):
            reduce_to_cover_solvability(inst)

    def test_total_pebbles_formula(self):
        for inst in (FIG1, NO_COVER):
            n, m = inst.n, inst.m
            red = reduce_to_cover_solvability(inst)
            span = m - n
            assert red.config.size == 9 * m + 2 * m + (span - 1) + 2**span - span + 1

    def test_roles_partition(self):
        red = reduce_to_cover_solvability(FIG1)
        assert len(red.vertex_roles) == red.graph.n
        assert len(set(red.vertex_names)) == red.graph.n
        assert sorted(set(red.vertex_roles)) == ["B", "B'", "B''", "T", "v", "w"]

    def test_degenerate_equal_counts(self):
        inst = X4CInstance(
            2, (frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8}))
        )
        red = reduce_to_cover_solvability(inst)
        # the connector path vanishes and the collector keeps 2 pebbles
        assert "w" not in red.vertex_names
        assert red.graph.n == 4 * 2 + 3 * 2 + 1
        assert red.config.counts[red.index_of("v")] == 2
        cover = x4c_solve(inst)
        cert = cover_certificate_from_exact_cover(inst, cover)
        v = red.index_of("v")
        assert all(v not in (a, b) for a, b, _ in cert.items())
        assert verify_solution(red.graph, red.config, red.demand, cert)
        assert is_cover_solvable(red.graph, red.config, red.demand).solvable

    def test_graph_invariants(self):
        for inst in (FIG1, NO_COVER):
            red = reduce_to_cover_solvability(inst)
            assert red.graph.diameter >= 1  # connectivity checked at build


class TestCoverCertificate:
    def test_figure_certificate_verifies(self):
        cert = cover_certificate_from_exact_cover(FIG1, [0, 2])
        red = reduce_to_cover_solvability(FIG1)
        assert verify_solution(red.graph, red.config, red.demand, cert)

    def test_wrong_cover_rejected(self):
        with pytest.raises(NotACover):
            cover_certificate_from_exact_cover(FIG1, [0, 1])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(NotACover):
            cover_certificate_from_exact_cover(FIG1, [0, 0])


class TestCanonicalReduction:
    def test_figure_two_values(self):
        red = reduce_cover_to_canonical(Graph.path(4), Configuration((0, 2, 1, 3)))
        assert red.graph.n == 25 == 4 * 4 + 2 * 4 + 1
        assert red.config.counts[:4] == (1, 3, 2, 4)
        assert red.config.counts[4:20] == (1,) * 16
        assert red.config.counts[20] == 12 == 2**4 - 4
        assert red.config.counts[21:] == (0, 0, 0, 0)
        assert red.vertex_names[red.target] == "w4"

    def test_large_configuration_is_trivial_instance(self):
        red = reduce_cover_to_canonical(Graph.complete(2), Configuration((4, 0)))
        assert red.trivial and red.graph.n == 1 and red.config.counts == (1,)

    def test_single_vertex_passthrough(self):
        g = Graph(1)
        red = reduce_cover_to_canonical(g, Configuration((1,)))
        assert not red.trivial and red.graph is g and red.config.counts == (1,)

    def test_rejects_configuration_of_other_size(self):
        with pytest.raises(DimensionMismatch):
            reduce_cover_to_canonical(Graph.complete(2), Configuration((0, 0, 0)))

    def test_roles(self):
        red = reduce_cover_to_canonical(Graph.complete(2), Configuration((0, 0)))
        assert red.vertex_roles.count("H") == 2
        assert red.vertex_roles.count("u_ij") == 4
        assert red.vertex_roles.count("w_i") == 3


class TestNumberReduction:
    def test_figure_shape(self):
        red = reduce_to_number_threshold(FIG1)
        assert red.graph.n == 21 == 4 * 2 + 4 * 3 + 1
        assert red.threshold == 77 == 15 * 3 + 16 * 2
        assert red.vertex_names[red.target] == "v"

    def test_tiny_shape(self):
        red = reduce_to_number_threshold(X4CInstance(1, (frozenset({1, 2, 3, 4}),)))
        assert red.graph.n == 9 and red.threshold == 31

    def test_roles_partition(self):
        red = reduce_to_number_threshold(FIG1)
        assert len(red.vertex_names) == len(set(red.vertex_names)) == red.graph.n
        counts = {role: red.vertex_roles.count(role) for role in set(red.vertex_roles)}
        assert counts == {"T": 8, "B": 3, "B'": 3, "B''": 3, "B'''": 3, "v": 1}


class TestNumberWitness:
    def test_figure_witness_values(self):
        wit = number_witness_config(FIG1, [0, 2])
        red = reduce_to_number_threshold(FIG1)
        stacks = [wit.counts[red.index_of(f"b{i}'''")] for i in (1, 2, 3)]
        assert stacks == [31, 15, 31]
        assert wit.size == 77

    def test_tiny_witness(self):
        inst = X4CInstance(1, (frozenset({1, 2, 3, 4}),))
        wit = number_witness_config(inst, [0])
        assert wit.size == 31 and max(wit.counts) == 31

    def test_size_identity(self):
        inst = X4CInstance(
            2,
            (
                frozenset({1, 2, 3, 4}),
                frozenset({5, 6, 7, 8}),
                frozenset({1, 2, 7, 8}),
                frozenset({3, 4, 5, 6}),
            ),
        )
        cover = x4c_solve(inst)
        wit = number_witness_config(inst, cover)
        assert wit.size == 31 * inst.n + 15 * (inst.m - inst.n)

    def test_not_a_cover(self):
        with pytest.raises(NotACover):
            number_witness_config(FIG1, [0, 1])

    def test_tiny_witness_rejected(self):
        inst = X4CInstance(1, (frozenset({1, 2, 3, 4}),))
        red = reduce_to_number_threshold(inst)
        wit = number_witness_config(inst, [0])
        assert not is_reachable(red.graph, wit, red.target).solvable


class TestCollapseConsistency:
    def test_stack_collapse_chain(self):
        # folding a storage path into its set vertex: 31 -> 15 -> 7 -> 3,
        # and 15 -> 7 -> 3 -> 1 (a 31-stack leaves 3, one legal move's worth;
        # 32 would leave 4 and break the witness)
        for stack, expected in ((31, 3), (15, 1)):
            g = Graph.path(4)  # b - b' - b'' - b'''
            c = Configuration((0, 0, 0, stack))
            d = Demand((0,) * 4)
            while g.n > 1:
                g, c, d = collapse_leaf(g, c, d, g.n - 1)
            assert c.counts == (expected,)

    def test_path4_pebbling_number_is_8(self):
        assert pebbling_number(Graph.path(4)).value == 8


# Slack 3 (m - n = 3), the frontier of the x4c-ladder cap: per (n, seed), a
# family without and one with an exact cover, as bench/inputs.py's
# _draw_sets draws them from random.Random(f"frontier:{n}:3:{seed}:{yes}"),
# with the nodes each closes in.  With the deficits branched by head index,
# the n = 2 seed 1 pair took 672,634 and 1,193,245 nodes, and n = 3 seed 1
# (yes) ran past the cap; branching the collector's deficit first, the one
# with the least root potential margin, closes every one well under it.
FRONTIER = [
    (2, [{2, 3, 4, 7}, {1, 3, 4, 7}, {1, 2, 3, 6}, {1, 3, 5, 7}, {5, 6, 7, 8}],
     False, 2_555),
    (2, [{1, 2, 4, 6}, {1, 3, 4, 5}, {2, 4, 6, 8}, {4, 6, 7, 8}, {1, 2, 3, 5}],
     True, 1_046),
    (2, [{1, 3, 4, 5}, {2, 3, 6, 7}, {1, 2, 4, 6}, {5, 6, 7, 8}, {1, 2, 3, 8}],
     False, 6_679),
    (2, [{1, 4, 7, 8}, {4, 5, 6, 8}, {3, 6, 7, 8}, {2, 3, 6, 7}, {1, 2, 3, 7}],
     True, 1_257),
    (3, [{4, 6, 8, 10}, {2, 5, 9, 10}, {3, 4, 7, 12}, {4, 8, 9, 10}, {1, 3, 6, 11},
         {1, 2, 3, 9}], False, 1_700),
    (3, [{5, 6, 7, 9}, {3, 7, 9, 10}, {1, 2, 3, 8}, {4, 10, 11, 12}, {4, 8, 11, 12},
         {1, 5, 7, 8}], True, 43_797),
    (3, [{2, 5, 11, 12}, {3, 5, 9, 10}, {1, 2, 6, 11}, {3, 4, 5, 8}, {4, 7, 8, 11},
         {5, 6, 7, 11}], False, 3_154),
    (3, [{2, 6, 7, 10}, {5, 6, 7, 9}, {1, 4, 5, 9}, {1, 7, 8, 9}, {4, 8, 11, 12},
         {1, 3, 5, 9}], True, 702),
    (4, [{1, 3, 10, 15}, {7, 8, 14, 16}, {7, 11, 12, 16}, {4, 7, 9, 10},
         {5, 7, 13, 16}, {1, 3, 12, 15}, {2, 6, 10, 13}], False, 676),
    (4, [{1, 6, 8, 11}, {4, 9, 10, 15}, {3, 12, 14, 16}, {5, 8, 9, 13},
         {3, 4, 9, 13}, {1, 9, 12, 15}, {2, 5, 7, 13}], True, 2_126),
]


class TestRoundTrips:
    def test_cover_reduction_solvable_direction(self):
        red = reduce_to_cover_solvability(FIG1)
        result = is_cover_solvable(red.graph, red.config, red.demand, node_cap=10**7)
        assert result.solvable

    def test_slack_two_no_instance_closes_under_the_ladder_cap(self):
        # the x4c-ladder cap.  Under branching in plain (from, to) order this
        # instance runs past it; with the deficits branched by head index it
        # took 35,750 nodes, and 129,972 without folding its pendant trees.
        # Branching the collector's deficit, the tightest, first closes it
        # in a few hundred.
        assert x4c_solve(SLACK2_NO) is None
        red = reduce_to_cover_solvability(SLACK2_NO)
        result = is_cover_solvable(red.graph, red.config, red.demand, node_cap=3_000_000)
        assert not result.solvable
        assert result.nodes_expanded == 138

    @pytest.mark.parametrize(("n", "sets", "yes", "nodes"), FRONTIER)
    def test_slack_three_frontier_closes_under_the_ladder_cap(self, n, sets, yes, nodes):
        inst = X4CInstance(n, tuple(map(frozenset, sets)))
        assert (x4c_solve(inst) is not None) == yes
        red = reduce_to_cover_solvability(inst)
        result = is_cover_solvable(red.graph, red.config, red.demand, node_cap=3_000_000)
        assert result.solvable == yes
        assert result.nodes_expanded == nodes
        if yes:
            assert verify_solution(red.graph, red.config, red.demand, result.certificate)

    def test_cover_certificates_verify_across_small_instances(self):
        import random

        rng = random.Random(10)
        built = 0
        while built < 12:
            n = rng.randint(1, 2)
            m = rng.randint(n, n + 2)
            universe = list(range(1, 4 * n + 1))
            sets = []
            for _ in range(m):
                rng.shuffle(universe)
                sets.append(frozenset(universe[:4]))
            try:
                inst = X4CInstance(n, tuple(sets))
            except Exception:
                continue
            cover = x4c_solve(inst)
            if cover is None:
                continue
            red = reduce_to_cover_solvability(inst)
            cert = cover_certificate_from_exact_cover(inst, cover)
            assert verify_solution(red.graph, red.config, red.demand, cert), inst
            built += 1

    def test_canonical_round_trip_k2(self):
        g = Graph.complete(2)
        for counts in [(0, 0), (1, 0), (2, 0), (1, 1), (3, 0), (2, 1)]:
            c = Configuration(counts)
            red = reduce_cover_to_canonical(g, c)
            unit = is_cover_solvable(g, c, Demand.unit(2)).solvable
            reach_solver = is_reachable(red.graph, red.config, red.target).solvable
            reach_oracle = oracle_solvable(
                red.graph, red.config, Demand.reach(red.graph.n, red.target)
            )
            assert unit == reach_solver == reach_oracle
