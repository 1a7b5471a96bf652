"""Randomized invariants of the move-list model and the solvers."""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pebbling import (
    BudgetExceeded,
    Configuration,
    Demand,
    Graph,
    MoveList,
    apply_moves,
    cover_pebbling_number,
    gamma,
    gamma_witness,
    is_cover_solvable,
    oracle_solvable,
    pebbling_number,
    verify_solution,
)
from pebbling import solver
from pebbling.solver import _arcs, _peel, _uncoverable
from universe import (
    acyclic,
    compositions,
    contains,
    core_weight,
    directed_edges,
    floyd_warshall,
    legal_moves,
    reference_threshold,
    reference_uncoverable,
    root_potential,
)


@st.composite
def connected_graphs(draw, max_n: int = 5):
    n = draw(st.integers(1, max_n))
    edges = [
        (draw(st.integers(0, v - 1)), v) for v in range(1, n)
    ]  # random spanning tree
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)
    )
    edges.extend((u, v) for u, v in extra if u != v)
    return Graph(n, edges)


@st.composite
def instances(draw, max_n: int = 5, max_pebbles: int = 8, max_demand: int = 3):
    g = draw(connected_graphs(max_n))
    counts = [0] * g.n
    for _ in range(draw(st.integers(0, max_pebbles))):
        counts[draw(st.integers(0, g.n - 1))] += 1
    demand = [0] * g.n
    for _ in range(draw(st.integers(0, max_demand))):
        demand[draw(st.integers(0, g.n - 1))] += 1
    return g, Configuration(tuple(counts)), Demand(tuple(demand))


@st.composite
def trees(draw, max_n: int = 7, max_pebbles: int = 10, max_demand: int = 4):
    n = draw(st.integers(1, max_n))
    g = Graph(n, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)])
    counts = [0] * n
    for _ in range(draw(st.integers(0, max_pebbles))):
        counts[draw(st.integers(0, n - 1))] += 1
    demand = [0] * n
    for _ in range(draw(st.integers(0, max_demand))):
        demand[draw(st.integers(0, n - 1))] += 1
    return g, Configuration(tuple(counts)), Demand(tuple(demand))


@st.composite
def cyclic_instances(draw, max_n: int = 7, max_pebbles: int = 14):
    # a cycle on 0..k-1 with pendant trees and chords, two or three cycle
    # vertices short and every pebble elsewhere, so that most draws keep two
    # deficits on the 2-core and get past the root checks into the search
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(3, n))
    edges = [(v, (v + 1) % k) for v in range(k)]
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(k, n)]
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)
    )
    edges += [(u, v) for u, v in extra if u != v]
    short = draw(
        st.lists(st.integers(0, k - 1), min_size=2, max_size=min(3, n - 1), unique=True)
    )
    demand = [0] * n
    for z in short:
        demand[z] = draw(st.integers(1, 2))
    others = [v for v in range(n) if v not in short]
    counts = [0] * n
    for _ in range(draw(st.integers(6, max_pebbles))):
        counts[draw(st.sampled_from(others))] += 1
    return Graph(n, edges), Configuration(tuple(counts)), Demand(tuple(demand))


@given(connected_graphs(max_n=9))
def test_distances_match_floyd_warshall(g):
    # the level-by-level BFS against a reference that shares none of it;
    # the adjacency lists come out ascending without a sort
    ref = floyd_warshall(g.n, g.edges)
    assert [[g.distance(u, v) for v in range(g.n)] for u in range(g.n)] == ref
    assert g.diameter == max(map(max, ref))
    for v in range(g.n):
        assert list(g.neighbors(v)) == sorted({*g.neighbors(v)})


@given(connected_graphs(max_n=9), st.sampled_from(("first", "middle", "last")))
def test_a_vertex_cut_off_disconnects(g, which):
    assume(g.n >= 2)
    v = {"first": 0, "middle": g.n // 2, "last": g.n - 1}[which]
    with pytest.raises(ValueError, match="^graph is not connected$"):
        Graph(g.n, [e for e in g.edges if v not in e])


@given(instances())
def test_single_move_never_raises_gamma(case):
    g, c, d = case
    for u, w in legal_moves(g, c):
        after = apply_moves(g, c, MoveList({(u, w): 1}))
        for v in range(g.n):
            assert not gamma(g, after, d, v) > gamma(g, c, d, v)


@given(instances())
def test_verify_iff_applied_configuration_contains_demand(case):
    g, c, d = case
    result = is_cover_solvable(g, c, d)
    if result.solvable:
        ml = result.certificate
        assert verify_solution(g, c, d, ml)
        assert contains(apply_moves(g, c, ml), d)


@given(instances(), st.data())
def test_verify_equals_contains_for_arbitrary_move_lists(case, data):
    g, c, d = case
    pairs = directed_edges(g)
    if not pairs:
        return
    picks = data.draw(st.lists(st.sampled_from(pairs), max_size=5))
    ml = MoveList([(u, w, 1) for u, w in picks])
    assert verify_solution(g, c, d, ml) == contains(apply_moves(g, c, ml), d)


@given(instances(), st.integers(0, 2))
def test_verification_depends_only_on_surplus(case, shift):
    g, c, d = case
    result = is_cover_solvable(g, c, d)
    if not result.solvable:
        return
    ml = result.certificate
    # replace (c, d) with (c - d + d', d'): same surplus, same verdict
    d2 = Demand(tuple(shift for _ in range(g.n)))
    c2 = Configuration(
        tuple(
            c.counts[v] - d.counts[v] + d2.counts[v] for v in range(g.n)
        ),
        extended=True,
    )
    assert verify_solution(g, c2, d2, ml)


@given(instances(), st.data())
def test_apply_moves_is_additive(case, data):
    g, c, d = case
    pairs = directed_edges(g)
    if not pairs:
        return
    def random_ml():
        picks = data.draw(
            st.lists(st.sampled_from(pairs), min_size=0, max_size=3)
        )
        return MoveList([(u, w, 1) for u, w in picks])
    ml1, ml2 = random_ml(), random_ml()
    chained = apply_moves(g, apply_moves(g, c, ml1), ml2)
    merged = apply_moves(g, c, MoveList([*ml1.items(), *ml2.items()]))
    assert chained.counts == merged.counts


@given(instances())
@settings(max_examples=150)
def test_solver_certificates_match_oracle(case):
    g, c, d = case
    result = is_cover_solvable(g, c, d)
    assert result.solvable == oracle_solvable(g, c, d)


@given(instances(), st.data())
def test_solve_with_built_plan_matches_fresh_graph(case, data):
    g, c, d = case
    # an earlier search on g must leave nothing behind on g
    other = data.draw(st.lists(st.integers(0, 8), min_size=g.n, max_size=g.n))
    is_cover_solvable(g, Configuration(tuple(other)), Demand.unit(g.n))
    assert is_cover_solvable(g, c, d) == is_cover_solvable(Graph(g.n, g.edges), c, d)


def lifted_certificate_holds(g, c, d, result) -> bool:
    """The verdict is the oracle's, and a certificate solves the original
    instance with an acyclic support."""
    if result.solvable != oracle_solvable(g, c, d):
        return False
    ml = result.certificate
    return not result.solvable or (verify_solution(g, c, d, ml) and acyclic(ml))


@given(trees())
@settings(max_examples=200)
def test_tree_solver_agrees_with_oracle(case):
    # a tree folds to one vertex: decided by its sign, with no search
    g, c, d = case
    result = is_cover_solvable(g, c, d)
    assert lifted_certificate_holds(g, c, d, result)
    assert result.nodes_expanded == 0


@given(instances(max_n=7, max_pebbles=10, max_demand=4))
@settings(max_examples=300, deadline=None)
def test_pendant_trees_fold_exactly(case):
    # a random tree plus a few chords: the search runs on the 2-core with
    # the pendant trees folded in, and the certificate it lifts back must
    # solve the original graph
    g, c, d = case
    assert lifted_certificate_holds(g, c, d, is_cover_solvable(g, c, d))


@given(connected_graphs(max_n=4), st.data())
@settings(deadline=None)
def test_frontier_sweep_matches_plain_enumeration(g, data):
    # values, colex-first witnesses and configuration counts of the frontier
    # sweep equal those of sending every configuration to the solver
    spots = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3))
    d = Demand(tuple(spots.count(v) for v in range(g.n)))
    res = cover_pebbling_number(g, d)
    assert (
        res.value,
        res.extremal_config.counts,
        res.configs_checked,
    ) == reference_threshold(g, [d])


@given(connected_graphs(max_n=4), st.data())
@settings(deadline=None)
def test_packed_fields_match_plain_enumeration(g, data):
    # the sweep packs a configuration into one int, in fields of
    # max(config_cap, largest demand count).bit_length() + 2 bits.  With
    # single counts up to 40 and caps next to a power of two, it gives plain
    # enumeration's value, witness and count, or stops where the cap is
    # passed: n charged per failing configuration of sizes 0 .. k - 1
    # before size k is built
    counts = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    counts[data.draw(st.integers(0, g.n - 1))] = data.draw(st.integers(1, 40))
    d = Demand(tuple(counts))
    cap = (1 << data.draw(st.integers(0, 10))) + data.draw(st.integers(-1, 1))
    failed, k = 1, 1  # the empty configuration fails
    while g.n * failed <= cap:
        fails = sum(
            not is_cover_solvable(g, Configuration(c), d).solvable
            for c in compositions(k, g.n)
        )
        if not fails:
            res = cover_pebbling_number(g, d, config_cap=cap)
            assert (
                res.value,
                res.extremal_config.counts,
                res.configs_checked,
            ) == reference_threshold(g, [d])
            return
        failed += fails
        k += 1
    with pytest.raises(BudgetExceeded):
        cover_pebbling_number(g, d, config_cap=cap)


@given(connected_graphs(max_n=4), st.data())
@settings(deadline=None)
def test_relabelling_keeps_the_numbers(g, data):
    # the sweep keys configurations and moves by vertex label, which must
    # decide nothing: a relabelled graph has the same value and count,
    # and its witness is the colex-first failure on the relabelled graph
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    spots = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=3))
    d = Demand(tuple(spots.count(v) for v in range(g.n)))
    hd = Demand(tuple(spots.count(perm.index(v)) for v in range(g.n)))
    for res, moved, demands in (
        (cover_pebbling_number(g, d), cover_pebbling_number(h, hd), [hd]),
        (pebbling_number(g), pebbling_number(h), [Demand.reach(g.n, v) for v in range(g.n)]),
    ):
        assert (moved.value, moved.configs_checked) == (res.value, res.configs_checked)
        assert (
            moved.value,
            moved.extremal_config.counts,
            moved.configs_checked,
        ) == reference_threshold(h, demands)


@given(instances())
def test_monotonicity_in_pebbles(case):
    g, c, d = case
    result = is_cover_solvable(g, c, d)
    if not result.solvable:
        return
    bigger = Configuration(tuple(x + 1 for x in c.counts))
    assert is_cover_solvable(g, bigger, d).solvable


@given(instances())
def test_gamma_witness_is_sound(case):
    g, c, d = case
    if gamma_witness(g, c, d) is not None:
        assert not oracle_solvable(g, c, d)


@given(instances(max_n=6, max_pebbles=10, max_demand=6))
def test_gamma_witness_is_the_first_negative_gamma(case):
    # gamma_witness sums over 2**diameter, gamma over 2**eccentricity; the
    # two denominators differ by a power of two, so the signs agree
    g, c, d = case
    first = next((v for v in range(g.n) if gamma(g, c, d, v) < 0), None)
    assert gamma_witness(g, c, d) == first


@given(instances())
def test_root_witness_equals_gamma_witness(case):
    # the solver decides at the root exactly when some potential is
    # negative, and then names the lowest such vertex; otherwise both are None
    g, c, d = case
    assert is_cover_solvable(g, c, d).witness == gamma_witness(g, c, d)


@given(instances(max_n=6, max_pebbles=12, max_demand=4), st.data())
def test_relabelling_keeps_the_verdict(case, data):
    # the branching order follows the labels and the deficit pattern, so a
    # relabelled copy searches in another order but must reach the same verdict
    g, c, d = case
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    hc, hd = [0] * g.n, [0] * g.n
    for v in range(g.n):
        hc[perm[v]] = c.counts[v]
        hd[perm[v]] = d.counts[v]
    hc, hd = Configuration(tuple(hc)), Demand(tuple(hd))
    result, relabelled = is_cover_solvable(g, c, d), is_cover_solvable(h, hc, hd)
    assert result.solvable == relabelled.solvable
    if result.solvable:
        assert verify_solution(g, c, d, result.certificate)
        assert verify_solution(h, hc, hd, relabelled.certificate)


@given(connected_graphs(max_n=7), st.randoms(use_true_random=True))
@settings(max_examples=200)
def test_uncoverable_matches_the_full_walk(g, rng):
    # the pass stops each deficit's walk once its sign is settled; on any
    # state it must give the verdict of the walk over every layer.  A sign
    # that flips late needs several deficits near the margin, about one
    # state in a few thousand, so each graph gets 200 states.  The arcs
    # join the 2-core of g, so states are drawn over its vertices; about
    # half the graphs drawn fold to one vertex, hence 200 graphs.
    _, core = _peel(g)
    m = len(core)
    weight = core_weight(g, core)
    for _ in range(200):
        spread = rng.choice((2, 4, 8))
        base = [rng.randint(-spread, spread) for _ in range(m)]
        edges, into = _arcs(g, core, base, root_potential(weight, base))
        val = [rng.randint(-spread, spread) for _ in range(m)]
        p = rng.randint(0, len(edges))
        succ = [set() for _ in range(m)]
        for u, w in edges[:p]:
            if rng.random() < 0.3:
                succ[u].add(w)
        def_sum = sum(-x for x in val if x < 0)
        pos_sum = sum(x for x in val if x > 0)
        assert _uncoverable(into, val, succ, p, def_sum, pos_sum) == (
            reference_uncoverable(into, val, succ, p)
        )


@given(cyclic_instances())
@settings(max_examples=200, deadline=None)
def test_tightest_deficit_branches_first(case):
    # the call's branching order, as handed to the search: the in-arcs of
    # the deficits first, grouped by head in ascending (root potential,
    # head) and by tail within a head, then the rest in ascending (from, to)
    g, c, d = case
    seen = []
    search = solver._search

    def recording(edges, weight, into, val, pot, *rest):
        # the search mutates val, so copy it; pot it must leave as it was
        seen.append((edges, val[:], pot, pot[:], weight))
        return search(edges, weight, into, val, pot, *rest)

    with patch.object(solver, "_search", recording):
        result = is_cover_solvable(g, c, d)
    assert lifted_certificate_holds(g, c, d, result)
    assert all(pot == kept for _, _, pot, kept, _ in seen)
    _, core = _peel(g)
    # one weight table per call, over the core's own diameter
    assert all(weight == core_weight(g, core) for *_, weight in seen)
    assume(seen and sum(x < 0 for x in seen[0][1]) >= 2)
    edges, val, pot, _, weight = seen[0]
    assert pot == root_potential(weight, val)
    pos = {v: i for i, v in enumerate(core)}
    arcs = sorted((pos[u], pos[w]) for u, w in directed_edges(g) if u in pos and w in pos)
    first = sorted(
        (e for e in arcs if val[e[1]] < 0), key=lambda e: (pot[e[1]], e[1], e[0])
    )
    assert edges == first + [e for e in arcs if val[e[1]] >= 0]
