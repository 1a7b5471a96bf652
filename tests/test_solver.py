import sys
from unittest.mock import patch

import pytest

from pebbling import (
    BudgetExceeded,
    Configuration,
    Demand,
    Graph,
    MoveList,
    is_canonical_solvable,
    is_cover_solvable,
    is_reachable,
    oracle_solvable,
    verify_solution,
)
from pebbling import solver
from pebbling.core import potentials, weights
from pebbling.solver import _arcs, _peel, _uncoverable
from universe import (
    acyclic,
    collapse_leaf,
    core_dist,
    core_weight,
    directed_edges,
    fold_to_one_vertex,
    reference_uncoverable,
    root_potential,
)

K2 = Graph.complete(2)
P3 = Graph.path(3)


class TestOracle:
    def test_k2_two_stack_fails_unit(self):
        assert not oracle_solvable(K2, Configuration((2, 0)), Demand.unit(2))

    def test_p3_boundary(self):
        assert oracle_solvable(P3, Configuration((7, 0, 0)), Demand.unit(3))
        assert not oracle_solvable(P3, Configuration((6, 0, 0)), Demand.unit(3))

    def test_containing_configuration_is_immediate(self):
        assert oracle_solvable(P3, Configuration((1, 2, 1)), Demand.unit(3))

    def test_state_cap(self):
        with pytest.raises(BudgetExceeded):
            oracle_solvable(
                Graph.path(5), Configuration((12, 0, 0, 0, 0)), Demand.unit(5), state_cap=3
            )


class TestIsCoverSolvable:
    def test_gamma_unsolvable_reports_witness(self):
        result = is_cover_solvable(P3, Configuration((6, 0, 0)), Demand.unit(3))
        assert not result.solvable and result.witness == 2
        assert result.certificate is None

    def test_p3_certificate(self):
        result = is_cover_solvable(P3, Configuration((7, 0, 0)), Demand.unit(3))
        assert result.solvable
        assert result.certificate == MoveList({(0, 1): 3, (1, 2): 1})

    def test_single_vertex_zero_demand(self):
        result = is_cover_solvable(Graph(1), Configuration((0,)), Demand((0,)))
        assert result.solvable and result.certificate == MoveList()

    def test_extended_input(self):
        # a signed configuration: the deficit can be repaid along the edge
        result = is_cover_solvable(
            K2, Configuration((4, -1), extended=True), Demand((0, 0))
        )
        assert result.solvable
        assert verify_solution(
            K2, Configuration((4, -1), extended=True), Demand((0, 0)), result.certificate
        )

    def test_extended_unsolvable(self):
        result = is_cover_solvable(
            K2, Configuration((1, -1), extended=True), Demand((0, 0))
        )
        assert not result.solvable

    def test_node_cap_raises(self):
        # (21,0,...) on C_6 is exactly affordable, so no root shortcut fires,
        # and a cycle has no pendant tree to fold: the search needs 38 nodes
        g = Graph.cycle(6)
        with pytest.raises(BudgetExceeded):
            is_cover_solvable(
                g, Configuration((21, 0, 0, 0, 0, 0)), Demand.unit(6), node_cap=5
            )

    def test_many_arcs_leave_recursion_limit_alone(self):
        # K_33 has 1,056 arcs, one stack frame per arc position
        n = 33
        g = Graph.complete(n)
        counts = [0] * n
        counts[32] = 2
        c, d = Configuration(tuple(counts)), Demand.reach(n, 31)
        limit = sys.getrecursionlimit()
        result = is_cover_solvable(g, c, d)
        assert sys.getrecursionlimit() == limit
        assert result.solvable and verify_solution(g, c, d, result.certificate)

    def test_deficit_first_order(self):
        # C_4 with 0 and 2 short: their in-arcs by ascending root potential
        # of the head, then by tail, the rest in ascending (from, to) order.
        # Both sit next to the surplus at 1, but 2 owes more: potential -3
        # against 0's 0, so it comes first although its label is larger
        g = Graph.cycle(4)
        peel, core = _peel(g)
        assert peel == [] and core == [0, 1, 2, 3]
        weight = core_weight(g, core)
        val = [-1, 3, -2, 0]
        pot = root_potential(weight, val)
        assert pot[0] == 0 and pot[2] == -3
        edges, into = _arcs(g, core, val, pot)
        assert edges == [
            (1, 2), (3, 2), (1, 0), (3, 0), (0, 1), (0, 3), (2, 1), (2, 3)
        ]
        # the one weight table serves the root potentials and every move's:
        # a move on (u, w) changes them by weight row w minus twice row u
        assert weights(*core_dist(g, core)) == weight
        assert potentials(val, weight) == pot
        for u, w in edges:
            moved = val[:]
            moved[u] -= 2
            moved[w] += 1
            assert root_potential(weight, moved) == [
                a + b - 2 * c for a, b, c in zip(pot, weight[w], weight[u])
            ]
        assert into == [[(1, 2), (3, 3)], [(0, 4), (2, 6)],
                        [(1, 0), (3, 1)], [(0, 5), (2, 7)]]

    def test_levels_below_the_deficit_are_skipped(self):
        # each move lifts the folded deficit by at most one, so a level below
        # it closes at the root with no node: the deepening starts at the
        # first doubling that reaches it, or at the budget when that is
        # smaller (K_4 owes 3 with one move to spare).  Node counts and
        # depths are those of the schedule that ran every level from 1
        cases = [
            (Graph.cycle(6), (21, 0, 0, 0, 0, 0), (1,) * 6, [8, 15], 41, 12),
            (Graph.complete(4), (4, 0, 0, 0), (0, 1, 1, 1), [1], 0, 0),
            (Graph.cycle(5), (9, 0, 0, 3, 0), (1,) * 5, [4], 8, 3),
            (Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (0, 5)]),
             (14, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 1), [8], 18, 7),
            # a deficit of exactly 4 starts at 4, not 8
            (Graph(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)]),
             (4, 5, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1), [4], 11, 3),
        ]
        search = solver._search
        for g, counts, demand, want, nodes, depth in cases:
            levels = []

            def recording(edges, weight, into, val, pot, level, *rest):
                deficit, budget = -sum(x for x in val if x < 0), sum(val)
                assert level >= deficit or level == budget
                levels.append(level)
                return search(edges, weight, into, val, pot, level, *rest)

            with patch.object(solver, "_search", recording):
                result = is_cover_solvable(g, Configuration(counts), Demand(demand))
            assert levels == want
            assert (result.nodes_expanded, result.max_depth) == (nodes, depth)

    def test_uncoverable_waits_for_deficits_one_layer_deeper(self):
        # centre 0 holds 7 pebbles for 2, 3, 4 owing 1, 3 and 2.  The walk
        # from 3 reads +16 after one layer, but 2 and 4 owe 3 more a layer
        # further, weighing 8 each: -8.  A pass test that stopped while that
        # deficit could still flip the sign would keep this node.  Every
        # vertex lies on a cycle, so the core positions are the labels.
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 4), (1, 3)])
        peel, core = _peel(g)
        assert peel == [] and core == [0, 1, 2, 3, 4]
        weight = core_weight(g, core)
        val = [7, 0, -1, -3, -2]
        into = _arcs(g, core, val, root_potential(weight, val))[1]
        succ = [set() for _ in val]
        assert reference_uncoverable(into, val, succ, 0)
        assert _uncoverable(into, val, succ, 0, 6, 7)

    def test_certificates_verify_and_are_acyclic(self):
        g = Graph.cycle(4)
        for counts in [(8, 0, 0, 0), (4, 1, 0, 1), (2, 2, 2, 2)]:
            result = is_cover_solvable(g, Configuration(counts), Demand.unit(4))
            if result.solvable:
                assert verify_solution(g, Configuration(counts), Demand.unit(4), result.certificate)
                assert acyclic(result.certificate)


def test_acyclic_rejects_cycles_and_accepts_a_long_path():
    assert not acyclic(MoveList({(0, 1): 1, (1, 0): 1}))
    assert not acyclic(MoveList({(0, 1): 1, (1, 2): 1, (2, 0): 1}))
    # a support path of 1,200 vertices stays clear of the recursion limit
    assert acyclic(MoveList([(i, i + 1, 1) for i in range(1199)]))


class TestCollapseLeaf:
    def test_surplus_halves_floored(self):
        h, c, d = collapse_leaf(Graph.path(2), Configuration((0, 5)), Demand((0, 0)), 1)
        assert h.n == 1 and c.counts == (2,) and d.counts == (0,)

    def test_deficit_doubles(self):
        h, c, d = collapse_leaf(Graph.path(2), Configuration((3, 0)), Demand((0, 1)), 1)
        assert c.counts == (1,)

    def test_balanced_leaf_leaves_neighbor_alone(self):
        h, c, d = collapse_leaf(Graph.path(2), Configuration((4, 2)), Demand((0, 2)), 1)
        assert c.counts == (4,)

    def test_deficit_can_go_negative(self):
        h, c, d = collapse_leaf(Graph.path(2), Configuration((0, 0)), Demand((0, 2)), 1)
        assert c.counts == (-4,) and c.extended


class TestPendantFold:
    def test_p3_boundary(self):
        # a path folds to one vertex: decided with no search
        result = is_cover_solvable(P3, Configuration((7, 0, 0)), Demand.unit(3))
        assert result.solvable and result.nodes_expanded == 0
        assert result.certificate == MoveList({(0, 1): 3, (1, 2): 1})
        result = is_cover_solvable(P3, Configuration((6, 0, 0)), Demand.unit(3))
        assert not result.solvable and result.nodes_expanded == 0

    def test_star_tight_leaves(self):
        # two pebbles per leaf cannot also cover the bare center; no
        # potential is negative, the folded centre is
        star = Graph.star(3)
        c = Configuration((0, 2, 2, 2))
        result = is_cover_solvable(star, c, Demand.unit(4))
        assert not result.solvable and result.witness is None
        assert result.nodes_expanded == 0
        assert not oracle_solvable(star, c, Demand.unit(4))

    def test_plan_peels_down_to_the_core(self):
        # a triangle 0-1-2 with the path 2-3-4 and the leaf 5 on 0 hanging off
        # the arcs join core positions; with no deficit they come in
        # ascending (from, to) order
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 5)])
        peel, core = _peel(g)
        assert peel == [(4, 3), (5, 0), (3, 2)]
        assert core == [0, 1, 2]
        weight = core_weight(g, core)
        val = [0, 0, 0]
        edges = _arcs(g, core, val, root_potential(weight, val))[0]
        assert edges == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        assert _peel(Graph.star(3))[1] == [0]

    def test_certificate_lifts_onto_the_pendant_trees(self):
        # 4 owes 1, so 3 must send it one move and owes 2, so 2 must send 3
        # two moves and owes 4; 5's surplus 3 is worth one move onto 0.  The
        # core then needs four moves 0 -> 2, which leave 0 one pebble to
        # spare, so 5's move is cut away.
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 5)])
        c, d = Configuration((8, 0, 0, 0, 0, 3)), Demand((0, 0, 0, 0, 1, 0))
        result = is_cover_solvable(g, c, d)
        assert result.solvable
        assert result.certificate == MoveList({(0, 2): 4, (2, 3): 2, (3, 4): 1})
        assert verify_solution(g, c, d, result.certificate)
        assert acyclic(result.certificate)

    def test_lift_sends_only_what_the_neighbour_lacks(self):
        # the fold passes 10 pebbles' worth along each surplus edge; the
        # trim keeps only the moves the demand needs
        result = is_cover_solvable(K2, Configuration((10, 0)), Demand((0, 1)))
        assert result.certificate == MoveList({(0, 1): 1})
        p4, c, d = Graph.path(4), Configuration((40, 0, 0, 0)), Demand((0, 0, 0, 1))
        result = is_cover_solvable(p4, c, d)
        assert result.certificate == MoveList({(0, 1): 4, (1, 2): 2, (2, 3): 1})
        assert verify_solution(p4, c, d, result.certificate)


class TestReachability:
    def test_k2(self):
        assert is_reachable(K2, Configuration((2, 0)), 1).solvable
        assert not is_reachable(K2, Configuration((1, 0)), 1).solvable

    def test_pebble_already_there(self):
        result = is_reachable(P3, Configuration((0, 0, 1)), 2)
        assert result.solvable and result.certificate == MoveList()


class TestCanonical:
    def test_center_stack(self):
        assert is_canonical_solvable(P3, Configuration((0, 4, 0))).canonical

    def test_reports_unreachable(self):
        result = is_canonical_solvable(P3, Configuration((2, 0, 0)))
        assert not result.canonical and result.unreachable == (2,)

    def test_unit_configuration(self):
        assert is_canonical_solvable(P3, Configuration((1, 1, 1))).canonical


def _brute_force_signed(g: Graph, c: Configuration, d: Demand) -> bool:
    """Enumerate every bounded move list; independent of the search."""
    base = [c.counts[k] - d.counts[k] for k in range(g.n)]
    if all(x >= 0 for x in base):
        return True
    budget = sum(base)
    if budget <= 0:
        return False
    edges = directed_edges(g)

    def rec(idx: int, remaining: int, vals: list[int]) -> bool:
        if all(v >= 0 for v in vals):
            return True
        if idx == len(edges):
            return False
        u, w = edges[idx]
        for q in range(remaining + 1):
            nv = list(vals)
            nv[u] -= 2 * q
            nv[w] += q
            if rec(idx + 1, remaining - q, nv):
                return True
        return False

    return rec(0, budget, base)


class TestCrossValidation:
    def test_signed_model_matches_brute_force(self):
        import random

        rng = random.Random(99)
        for _ in range(800):
            n = rng.randint(1, 3)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            if n == 3 and rng.random() < 0.5:
                edges.append((0, 2))
            g = Graph(n, edges)
            c = Configuration(
                tuple(rng.randint(-2, 4) for _ in range(n)), extended=True
            )
            d = Demand(tuple(rng.randint(0, 2) for _ in range(n)))
            want = _brute_force_signed(g, c, d)
            got = is_cover_solvable(g, c, d)
            assert got.solvable == want, (g, c.counts, d.counts)
            if got.solvable:
                assert verify_solution(g, c, d, got.certificate)

    def test_heavy_trees_match_tree_solver(self):
        # trees too heavy for the oracle, against folding by collapse_leaf
        import random

        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 11)
            g = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
            counts = [0] * n
            for _ in range(rng.randint(0, 35)):
                counts[rng.randrange(n)] += 1
            demand = [0] * n
            for _ in range(rng.randint(0, 8)):
                demand[rng.randrange(n)] += 1
            c, d = Configuration(tuple(counts)), Demand(tuple(demand))
            result = is_cover_solvable(g, c, d)
            assert result.solvable == fold_to_one_vertex(g, c, d)
            if result.solvable:
                assert verify_solution(g, c, d, result.certificate)
                assert acyclic(result.certificate)
