from fractions import Fraction

import pytest

from pebbling import (
    Configuration,
    Demand,
    DimensionMismatch,
    EdgeViolation,
    Graph,
    MoveList,
    apply_moves,
    gamma,
    gamma_witness,
    verify_solution,
)
from universe import legal_moves

K2 = Graph.complete(2)
P3 = Graph.path(3)


class TestGraph:
    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0), (0, 1)])

    def test_parallel_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1),)

    def test_distances_symmetric(self):
        g = Graph.cycle(5)
        for u in range(5):
            for v in range(5):
                assert g.distance(u, v) == g.distance(v, u)

    def test_path_metrics(self):
        p4 = Graph.path(4)
        assert p4.distance(0, 3) == 3
        assert p4.diameter == 3

    def test_induced_subgraph(self):
        h, remap = Graph.path(4).induced_subgraph([0, 1, 2])
        assert h == P3 and remap == {0: 0, 1: 1, 2: 2}

    def test_induced_subgraph_must_stay_connected(self):
        with pytest.raises(ValueError):
            Graph.path(3).induced_subgraph([0, 2])


class TestConfigurationAndDemand:
    def test_negative_needs_extended(self):
        with pytest.raises(ValueError):
            Configuration((-1, 2))
        assert Configuration((-1, 2), extended=True).size == 1

    def test_demand_constructors(self):
        assert Demand.unit(3).counts == (1, 1, 1)
        assert Demand.reach(3, 2).counts == (0, 0, 1)

    def test_demand_rejects_negative(self):
        with pytest.raises(ValueError):
            Demand((1, -1))


class TestMoveList:
    def test_merges_and_drops_zeros(self):
        ml = MoveList([(0, 1, 2), (0, 1, 1), (1, 2, 0)])
        assert ml.moves == ((0, 1, 3),)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MoveList({(0, 1): -1})


class TestVerifySolution:
    def test_k2_spec_example(self):
        assert verify_solution(K2, Configuration((2, 0)), Demand((0, 1)), MoveList({(0, 1): 1}))

    def test_p3_spec_example(self):
        assert verify_solution(
            P3, Configuration((7, 0, 0)), Demand.unit(3), MoveList({(0, 1): 3, (1, 2): 1})
        )

    def test_insufficient_fails(self):
        assert not verify_solution(
            K2, Configuration((1, 0)), Demand((0, 1)), MoveList({(0, 1): 1})
        )

    def test_non_edge_raises(self):
        with pytest.raises(EdgeViolation):
            verify_solution(P3, Configuration((4, 0, 0)), Demand.unit(3), MoveList({(0, 2): 1}))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_solution(K2, Configuration((1, 1, 1)), Demand.unit(2), MoveList())
        with pytest.raises(DimensionMismatch):
            verify_solution(K2, Configuration((1, 1)), Demand.unit(2), MoveList({(0, 5): 1}))


class TestApplyMoves:
    def test_basic(self):
        assert apply_moves(K2, Configuration((2, 0)), MoveList({(0, 1): 1})).counts == (0, 1)

    def test_empty_is_identity(self):
        c = Configuration((3, 1))
        assert apply_moves(K2, c, MoveList()) == c

    def test_negative_flags_extended(self):
        out = apply_moves(K2, Configuration((1, 0)), MoveList({(0, 1): 1}))
        assert out.counts == (-1, 1) and out.extended


class TestLegalMoves:
    """``universe.legal_moves``, the moves the gamma property makes."""

    def test_single_source(self):
        assert legal_moves(K2, Configuration((2, 0))) == [(0, 1)]

    def test_no_vertex_with_two(self):
        assert legal_moves(P3, Configuration((1, 1, 1))) == []

    def test_order_ascending(self):
        assert legal_moves(P3, Configuration((0, 4, 0))) == [(1, 0), (1, 2)]

    def test_rejects_extended(self):
        with pytest.raises(ValueError):
            legal_moves(K2, Configuration((-1, 3), extended=True))


class TestGamma:
    def test_k2_representation(self):
        value = gamma(K2, Configuration((1, 0)), Demand.unit(2), 1)
        assert isinstance(value, Fraction) and value == Fraction(-1)

    def test_single_vertex_balanced(self):
        assert gamma(Graph(1), Configuration((3,)), Demand((3,)), 0) == 0

    def test_p3_stack(self):
        assert gamma(P3, Configuration((3, 0, 0)), Demand.unit(3), 2) == -1

    def test_denominator_is_eccentricity(self):
        # vertex 2's eccentricity is 2, and -1/4 is in lowest terms
        value = gamma(P3, Configuration((6, 0, 0)), Demand.unit(3), 2)
        assert value == Fraction(-1, 4) and value.denominator == 1 << P3.distance(0, 2)


class TestGammaWitness:
    def test_lowest_negative_index_wins(self):
        # both vertices have negative potential here; index order decides
        assert gamma_witness(K2, Configuration((1, 0)), Demand.unit(2)) == 0

    def test_solved_configuration_has_none(self):
        assert gamma_witness(K2, Configuration((1, 1)), Demand.unit(2)) is None

    def test_p3_far_end(self):
        assert gamma_witness(P3, Configuration((6, 0, 0)), Demand.unit(3)) == 2
