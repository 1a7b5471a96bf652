"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and per-criterion timings.  Every tolerance and cap is pinned here; nothing
is deferred to configuration.
"""

from __future__ import annotations

import random
import time

from pebbling import (
    Configuration,
    Demand,
    Graph,
    MoveList,
    X4CInstance,
    apply_moves,
    cover_certificate_from_exact_cover,
    cover_pebbling_number,
    gamma_witness,
    is_canonical_solvable,
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
from universe import (
    compositions,
    connected_graphs,
    random_spread,
    random_tree,
    small_universe,
)

FIG1 = X4CInstance(
    2, (frozenset({1, 2, 3, 4}), frozenset({3, 4, 5, 6}), frozenset({5, 6, 7, 8}))
)
NO_COVER = X4CInstance(
    2, (frozenset({1, 2, 3, 4}), frozenset({3, 4, 5, 6}), frozenset({4, 5, 7, 8}))
)


def _verdict(number: int, detail: str, started: float) -> None:
    print(f"criterion {number}: PASS ({detail}) [{time.time() - started:.1f}s]")


def _support_acyclic(ml: MoveList) -> bool:
    succ: dict[int, list[int]] = {}
    for u, w, _ in ml.items():
        succ.setdefault(u, []).append(w)
    color: dict[int, int] = {}

    def dfs(x: int) -> bool:
        color[x] = 1
        for y in succ.get(x, ()):
            if color.get(y, 0) == 1:
                return False
            if color.get(y, 0) == 0 and not dfs(y):
                return False
        color[x] = 2
        return True

    return all(dfs(x) for x in list(succ) if color.get(x, 0) == 0)


def test_criterion_1_solver_matches_oracle_exhaustively():
    started = time.time()
    checked = 0
    for g, c, d in small_universe(max_n=4, max_pebbles=5):
        result = is_cover_solvable(g, c, d)
        assert result.solvable == oracle_solvable(g, c, d), (g, c, d)
        assert result.witness == gamma_witness(g, c, d), (g, c, d)
        if result.solvable:
            assert verify_solution(g, c, d, result.certificate), (g, c, d)
            assert _support_acyclic(result.certificate), (g, c, d)
        checked += 1
    _verdict(1, f"{checked} instances, zero disagreements", started)


def test_criterion_2_gamma_witness_soundness():
    started = time.time()
    rng = random.Random(2)
    witnessed = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        g = Graph(n, edges)
        c = Configuration(random_spread(rng, n, rng.randint(0, 8)))
        d = Demand(random_spread(rng, n, rng.randint(0, 4)))
        if gamma_witness(g, c, d) is not None:
            witnessed += 1
            assert not oracle_solvable(g, c, d), (g, c, d)
    _verdict(2, f"1000 instances, {witnessed} witnessed, zero violations", started)


def test_criterion_3_tree_solver_matches_oracle():
    # a tree folds to one vertex, so the solver decides it with no search
    # and lifts a certificate for the whole tree
    started = time.time()
    rng = random.Random(3)
    for _ in range(500):
        g = random_tree(rng, 9)
        c = Configuration(random_spread(rng, g.n, rng.randint(0, 12)))
        d = Demand(random_spread(rng, g.n, rng.randint(0, 4)))
        result = is_cover_solvable(g, c, d)
        assert result.solvable == oracle_solvable(g, c, d), (g, c, d)
        assert result.nodes_expanded == 0, (g, c, d)
        if result.solvable:
            assert verify_solution(g, c, d, result.certificate), (g, c, d)
            assert _support_acyclic(result.certificate), (g, c, d)
    _verdict(3, "500 random trees, zero disagreements", started)


def test_criterion_4_cover_pebbling_numbers_of_paths():
    started = time.time()
    for n in (2, 3, 4):
        res = cover_pebbling_number(Graph.path(n), Demand.unit(n))
        assert res.value == 2**n - 1, (n, res.value)
    bound_checked = 0
    for n in range(1, 5):
        for g in connected_graphs(n):
            assert cover_pebbling_number(g, Demand.unit(n)).value <= 2**n - 1, g
            bound_checked += 1
    _verdict(
        4, f"paths match 2^n-1; bound holds on all {bound_checked} graphs", started
    )


def test_criterion_5_pebbling_number_of_p4():
    started = time.time()
    assert pebbling_number(Graph.path(4)).value == 8
    _verdict(5, "pi(P_4) = 8", started)


def test_criterion_6_cover_solvability_reduction_round_trip():
    started = time.time()
    # solvable direction: the built certificate witnesses solvability
    red = reduce_to_cover_solvability(FIG1)
    cover = x4c_solve(FIG1)
    assert cover == [0, 2]
    cert = cover_certificate_from_exact_cover(FIG1, cover)
    assert verify_solution(red.graph, red.config, red.demand, cert)
    solved = is_cover_solvable(red.graph, red.config, red.demand, node_cap=10**8)
    assert solved.solvable
    # search cost, depth and certificate are pinned so that a pruning or
    # branching change shows here in the open
    assert solved.nodes_expanded == 160
    assert solved.max_depth == 9
    assert solved.certificate.moves == (
        (8, 0, 1), (8, 1, 1), (8, 2, 1), (8, 3, 1), (9, 12, 4), (10, 4, 1),
        (10, 5, 1), (10, 6, 1), (10, 7, 1), (12, 15, 2), (15, 17, 1), (17, 18, 1),
    )

    # unsolvable direction: exact search must close under the cap
    assert x4c_solve(NO_COVER) is None
    red = reduce_to_cover_solvability(NO_COVER)
    result = is_cover_solvable(red.graph, red.config, red.demand, node_cap=10**8)
    assert not result.solvable
    assert result.nodes_expanded == 18
    _verdict(
        6,
        f"19-vertex no-cover instance closed in {result.nodes_expanded} nodes",
        started,
    )


def test_criterion_7_canonical_reduction_round_trip():
    started = time.time()
    g = Graph.complete(2)
    cases = 0
    for size in range(0, 4):
        for counts in compositions(size, 2):
            c = Configuration(counts)
            red = reduce_cover_to_canonical(g, c)
            assert red.graph.n == 9
            unit = is_cover_solvable(g, c, Demand.unit(2)).solvable
            canonical = is_canonical_solvable(red.graph, red.config).canonical
            reach_solver = is_reachable(red.graph, red.config, red.target).solvable
            reach_oracle = oracle_solvable(
                red.graph, red.config, Demand.reach(red.graph.n, red.target)
            )
            assert unit == canonical == reach_solver == reach_oracle, counts
            cases += 1
    _verdict(7, f"{cases} configurations, all three notions agree", started)


def test_criterion_8_number_reduction_witness_and_sampling():
    started = time.time()
    tiny = X4CInstance(1, (frozenset({1, 2, 3, 4}),))
    red = reduce_to_number_threshold(tiny)
    witness = number_witness_config(tiny, [0])
    assert witness.size == red.threshold == 31
    assert not is_reachable(red.graph, witness, red.target, node_cap=10**8).solvable

    red = reduce_to_number_threshold(FIG1)
    witness = number_witness_config(FIG1, x4c_solve(FIG1))
    assert witness.size == red.threshold == 77
    assert not is_reachable(red.graph, witness, red.target, node_cap=10**8).solvable

    # no-cover upper bound direction, sampled: every size-77 configuration
    # on the no-cover-shaped graph must be solvable.  Half uniform, half
    # concentrated on the storage paths (the adversarial family).
    red = reduce_to_number_threshold(NO_COVER)
    assert red.threshold == 77
    paths = [
        i for i, role in enumerate(red.vertex_roles) if role in ("B", "B'", "B''", "B'''")
    ]
    rng = random.Random(8)
    for trial in range(200):
        if trial < 100:
            counts = list(random_spread(rng, red.graph.n, red.threshold))
        else:
            counts = [0] * red.graph.n
            for _ in range(red.threshold):
                counts[rng.choice(paths)] += 1
        result = is_reachable(
            red.graph, Configuration(tuple(counts)), red.target, node_cap=10**8
        )
        assert result.solvable, counts
    _verdict(8, "witnesses rejected; 200 threshold-size samples solvable", started)


def test_criterion_9_partial_execution_monotonicity_restriction():
    started = time.time()
    rng = random.Random(9)
    pool = [case for case in small_universe(max_n=4, max_pebbles=5)]
    solvable_pool = []
    for g, c, d in pool:
        if rng.random() < 0.25 and len(solvable_pool) < 1500:
            result = is_cover_solvable(g, c, d)
            if result.solvable and result.certificate:
                solvable_pool.append((g, c, d, result.certificate))
    assert len(solvable_pool) >= 350, "sampling produced too few solvable cases"

    partial = monotone = restricted = 0
    while partial < 1000:
        g, c, d, ml = solvable_pool[partial % len(solvable_pool)]
        split = [(u, w, q, rng.randint(0, q)) for u, w, q in ml.items()]
        sub = MoveList([(u, w, k) for u, w, _, k in split])
        rest = MoveList([(u, w, q - k) for u, w, q, k in split])
        stepped = apply_moves(g, c, sub)
        assert verify_solution(g, stepped, d, rest), (g, c, d, ml, sub)
        partial += 1

    while monotone < 1000:
        g, c, d, ml = solvable_pool[monotone % len(solvable_pool)]
        extra = random_spread(rng, g.n, rng.randint(0, 3))
        bigger = Configuration(tuple(a + b for a, b in zip(c.counts, extra)))
        assert is_cover_solvable(g, bigger, d).solvable, (g, c, d)
        monotone += 1

    attempts = 0
    while restricted < 1000 and attempts < 40000:
        attempts += 1
        g, c, d, ml = solvable_pool[attempts % len(solvable_pool)]
        touched = {u for u, _, _ in ml.items()} | {w for _, w, _ in ml.items()}
        untouched = [v for v in range(g.n) if v not in touched]
        if not untouched:
            continue
        drop = {v for v in untouched if rng.random() < 0.5}
        if not drop or len(drop) == g.n:
            continue
        keep = [v for v in range(g.n) if v not in drop]
        try:
            h, remap = g.induced_subgraph(keep)
        except ValueError:
            continue  # removing P disconnected the graph
        c2 = Configuration(tuple(c.counts[v] for v in keep))
        d2 = Demand(tuple(d.counts[v] for v in keep))
        ml2 = MoveList([(remap[u], remap[w], q) for u, w, q in ml.items()])
        assert verify_solution(h, c2, d2, ml2), (g, c, d, ml, drop)
        restricted += 1
    assert restricted >= 1000, f"only {restricted} restriction cases found"
    _verdict(
        9,
        f"{partial}+{monotone}+{restricted} cases across the three properties",
        started,
    )
