import importlib.util
import time
from math import comb
from pathlib import Path

import pytest

from pebbling import (
    BudgetExceeded,
    Configuration,
    Demand,
    DimensionMismatch,
    Graph,
    ZeroDemand,
    cover_pebbling_number,
    is_cover_solvable,
    pebbling_number,
    stacking_lower_bound,
)
from universe import compositions, connected_graphs, reference_threshold

NUMBER_TABLE = Path(__file__).resolve().parents[1] / "scripts" / "number_table.py"

# output of scripts/number_table.py --max-size 5, pinned from a plain colex
# enumeration of every configuration
NUMBER_TABLE_5 = """\
  graph   n  gamma(U)   pi  extremal (gamma)
    P_2   2         3    2  (2, 0)
    P_3   3         7    4  (6, 0, 0)
    P_4   4        15    8  (14, 0, 0, 0)
    P_5   5        31   16  (30, 0, 0, 0, 0)
    C_3   3         5    3  (4, 0, 0)
    C_4   4         9    4  (8, 0, 0, 0)
    C_5   5        13    5  (12, 0, 0, 0, 0)
    K_2   2         3    2  (2, 0)
    K_3   3         5    3  (4, 0, 0)
    K_4   4         7    4  (6, 0, 0, 0)
    K_5   5         9    5  (8, 0, 0, 0, 0)
  K_1,2   3         7    4  (0, 6, 0)
  K_1,3   4        11    5  (0, 10, 0, 0)
  K_1,4   5        15    6  (0, 14, 0, 0, 0)
"""


class TestCoverPebblingNumber:
    def test_k2(self):
        res = cover_pebbling_number(Graph.complete(2), Demand.unit(2))
        assert res.value == 3 and res.extremal_config.counts == (2, 0)

    def test_p3(self):
        res = cover_pebbling_number(Graph.path(3), Demand.unit(3))
        assert res.value == 7 and res.extremal_config.counts == (6, 0, 0)

    def test_single_vertex_heavy_demand(self):
        res = cover_pebbling_number(Graph(1), Demand((5,)))
        assert res.value == 5 and res.extremal_config.counts == (4,)

    def test_zero_demand_rejected(self):
        with pytest.raises(ZeroDemand):
            cover_pebbling_number(Graph.complete(2), Demand((0, 0)))

    def test_rejects_demand_of_other_size(self):
        with pytest.raises(DimensionMismatch):
            cover_pebbling_number(Graph.complete(2), Demand.unit(3))

    def test_config_cap_raises(self):
        with pytest.raises(BudgetExceeded):
            cover_pebbling_number(Graph.path(4), Demand.unit(4), config_cap=10)

    def test_extremal_is_really_unsolvable(self):
        g = Graph.star(3)
        res = cover_pebbling_number(g, Demand.unit(4))
        assert res.extremal_config.size == res.value - 1
        assert not is_cover_solvable(g, res.extremal_config, Demand.unit(4)).solvable

    def test_value_size_sweep_confirmed_by_oracle(self):
        from pebbling import oracle_solvable

        g = Graph.complete(2)
        d = Demand.unit(2)
        value = cover_pebbling_number(g, d).value
        for counts in compositions(value, 2):
            assert oracle_solvable(g, Configuration(counts), d)
        assert not all(
            oracle_solvable(g, Configuration(counts), d)
            for counts in compositions(value - 1, 2)
        )

    def test_demand_monotonicity(self):
        import random

        rng = random.Random(4)
        for g in (Graph.path(3), Graph.star(3), Graph.cycle(4), Graph.complete(3)):
            for _ in range(6):
                low = tuple(rng.randint(0, 2) for _ in range(g.n))
                high = tuple(x + rng.randint(0, 1) for x in low)
                if sum(low) == 0 or high == low:
                    continue
                assert (
                    cover_pebbling_number(g, Demand(low)).value
                    <= cover_pebbling_number(g, Demand(high)).value
                )


class TestThresholdSweep:
    GRAPHS = (Graph.path(3), Graph.cycle(4), Graph.star(3), Graph.complete(4))

    def test_every_size_up_to_the_value_is_enumerated_in_full(self):
        # sizes 1 .. value, comb(k + n - 1, n - 1) configurations each
        for g in self.GRAPHS:
            for res in (cover_pebbling_number(g, Demand.unit(g.n)), pebbling_number(g)):
                assert res.configs_checked == comb(res.value + g.n, g.n) - 1

    def test_pebbling_number_is_max_reachability_number(self):
        for g in (*self.GRAPHS, Graph.path(2), Graph.path(4), Graph.cycle(5)):
            assert pebbling_number(g).value == max(
                cover_pebbling_number(g, Demand.reach(g.n, v)).value for v in range(g.n)
            )


K23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
HOUSE = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
BULL = Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])


class TestFrontierAgreement:
    """The frontier sweep against plain enumeration with no dominance."""

    # five vertices with some symmetry, each with a non-uniform demand that
    # is equal on two vertices an automorphism swaps
    PARTLY_SYMMETRIC = (
        (Graph.cycle(5), (1, 1, 0, 0, 0)),
        (K23, (0, 0, 1, 1, 0)),
        (HOUSE, (0, 0, 1, 1, 0)),
        (BULL, (0, 0, 0, 1, 1)),
        (Graph.path(5), (0, 1, 0, 1, 0)),
    )

    GRAPHS = (
        *connected_graphs(1),
        *connected_graphs(2),
        *connected_graphs(3),
        Graph.path(4),
        Graph.cycle(4),
        Graph.star(3),
        Graph.complete(4),
    )

    @staticmethod
    def same(g, demands, res):
        assert (
            res.value,
            res.extremal_config.counts,
            res.configs_checked,
        ) == reference_threshold(g, demands)

    def test_cover_pebbling_numbers(self):
        for g in self.GRAPHS:
            for d in (Demand.unit(g.n), *(Demand.reach(g.n, v) for v in range(g.n))):
                self.same(g, [d], cover_pebbling_number(g, d))

    def test_pebbling_numbers(self):
        for g in self.GRAPHS:
            reach = [Demand.reach(g.n, v) for v in range(g.n)]
            self.same(g, reach, pebbling_number(g))

    def test_partly_symmetric_graphs(self):
        for g, counts in self.PARTLY_SYMMETRIC:
            demands = [Demand(counts), *(Demand.reach(5, v) for v in range(5))]
            if g != Graph.path(5):  # the reference would solve 376,991 configurations
                demands.append(Demand.unit(5))
            for d in demands:
                self.same(g, [d], cover_pebbling_number(g, d))
            self.same(g, [Demand.reach(5, v) for v in range(5)], pebbling_number(g))

    def test_number_table_is_unchanged(self, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("number_table", NUMBER_TABLE)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr("sys.argv", ["number_table.py", "--max-size", "5"])
        assert script.main() == 0
        assert capsys.readouterr().out == NUMBER_TABLE_5


class TestConfigCap:
    """The cap bounds the configurations the sweep builds: the n one-pebble
    extensions of each failing configuration of sizes 0 .. value - 1, per
    demand."""

    def test_cover_pebbling_number_boundary(self):
        g, d = Graph.path(4), Demand.unit(4)
        fails = sum(
            not is_cover_solvable(g, Configuration(c), d).solvable
            for k in range(15)
            for c in compositions(k, 4)
        )
        assert fails == 281
        assert cover_pebbling_number(g, d, config_cap=4 * fails).value == 15
        with pytest.raises(BudgetExceeded):
            cover_pebbling_number(g, d, config_cap=4 * fails - 1)

    def test_pebbling_number_boundary(self):
        g = Graph.cycle(4)
        fails = sum(
            not is_cover_solvable(g, Configuration(c), Demand.reach(4, v)).solvable
            for v in range(4)
            for k in range(4)
            for c in compositions(k, 4)
        )
        assert fails == 40
        assert pebbling_number(g, config_cap=4 * fails).value == 4
        with pytest.raises(BudgetExceeded):
            pebbling_number(g, config_cap=4 * fails - 1)

    def test_cap_counts_work_not_the_closed_form(self):
        # sizes 1 .. 47 hold 22,957,479 configurations, past the default cap,
        # but the sweep builds 176,046 of them
        g = Graph(6, [(0, 1), (0, 3), (1, 2), (2, 4), (2, 5)])
        res = cover_pebbling_number(g, Demand.unit(6))
        assert res.value == 47 and res.configs_checked == 22_957_479
        assert res.extremal_config.counts == (0, 0, 0, 46, 0, 0)
        with pytest.raises(BudgetExceeded):
            cover_pebbling_number(g, Demand.unit(6), config_cap=176_045)

    @pytest.mark.parametrize("g", [Graph.complete(12), Graph.star(11)], ids=["K12", "K1,11"])
    def test_set_up_stays_polynomial(self, g):
        # K12 has 12! automorphisms and K1,11 has 11!: nothing the sweep sets
        # up per graph may grow with the symmetry, and the cap, charged
        # before a size's extensions are built, is passed within a few sizes
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            cover_pebbling_number(g, Demand.unit(12), config_cap=10**4)
        assert time.perf_counter() - start < 1.0


class TestReachabilityNumber:
    def test_k2(self):
        res = cover_pebbling_number(Graph.complete(2), Demand.reach(2, 1))
        assert res.value == 2 and res.extremal_config.counts == (1, 0)

    def test_p3_far_end(self):
        res = cover_pebbling_number(Graph.path(3), Demand.reach(3, 2))
        assert res.value == 4 and res.extremal_config.counts == (3, 0, 0)

    def test_single_vertex(self):
        assert cover_pebbling_number(Graph(1), Demand.reach(1, 0)).value == 1


class TestPebblingNumber:
    def test_k2(self):
        assert pebbling_number(Graph.complete(2)).value == 2

    def test_p3(self):
        assert pebbling_number(Graph.path(3)).value == 4

    def test_single_vertex(self):
        res = pebbling_number(Graph(1))
        assert res.value == 1 and res.extremal_config.counts == (0,)

    def test_extremal_fails_some_target(self):
        g = Graph.cycle(4)
        res = pebbling_number(g)
        bad = res.extremal_config
        assert bad.size == res.value - 1
        assert not all(
            is_cover_solvable(g, bad, Demand.reach(4, v)).solvable for v in range(4)
        )


class TestStackingLowerBound:
    def test_k2_unit(self):
        assert stacking_lower_bound(Graph.complete(2), Demand.unit(2)) == 3

    def test_p3_unit(self):
        assert stacking_lower_bound(Graph.path(3), Demand.unit(3)) == 7

    def test_single_vertex(self):
        assert stacking_lower_bound(Graph(1), Demand((5,))) == 5

    def test_rejects_demand_of_other_size(self):
        with pytest.raises(DimensionMismatch):
            stacking_lower_bound(Graph.path(3), Demand.unit(2))

    def test_never_exceeds_enumerated_value(self):
        for g in (Graph.path(3), Graph.star(3), Graph.cycle(4), Graph.complete(3)):
            d = Demand.unit(g.n)
            assert stacking_lower_bound(g, d) <= cover_pebbling_number(g, d).value

    def test_matches_value_for_positive_demands_at_small_scale(self):
        # Sjöstrand's cover pebbling theorem ("The cover pebbling theorem",
        # Electron. J. Combin. 2005): for strictly positive demands the value
        # is the stacking bound.  The sweep never assumes it.
        for g in (Graph.path(2), Graph.path(3), Graph.star(3), Graph.complete(3)):
            for d in (Demand.unit(g.n), Demand(tuple(2 for _ in range(g.n)))):
                assert stacking_lower_bound(g, d) == cover_pebbling_number(g, d).value
