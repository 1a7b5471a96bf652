"""Automorphism generators and the orbit quotient of the threshold sweep."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebbling import BudgetExceeded, Demand, Graph, cover_pebbling_number
from pebbling.numbers import automorphism_generators

PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)


def orbit(x, gens):
    seen, todo = {x}, [x]
    while todo:
        y = todo.pop()
        for p in gens:
            if p[y] not in seen:
                seen.add(p[y])
                todo.append(p[y])
    return seen


def group_order(n, gens):
    # the product over levels i of the orbit of i under the generators
    # that fix 0 .. i - 1
    order = 1
    for i in range(n):
        order *= len(orbit(i, [p for p in gens if p[:i] == tuple(range(i))]))
    return order


def generated_group(n, gens):
    group, todo = {tuple(range(n))}, [tuple(range(n))]
    while todo:
        q = todo.pop()
        for p in gens:
            r = tuple(p[q[v]] for v in range(n))
            if r not in group:
                group.add(r)
                todo.append(r)
    return group


def brute_force_group(g, colour):
    edges = set(g.edges)
    return {
        p
        for p in itertools.permutations(range(g.n))
        if all(colour[p[v]] == colour[v] for v in range(g.n))
        and {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
    }


@pytest.mark.parametrize(
    "g, order",
    [
        (Graph.path(5), 2),
        (Graph.cycle(6), 12),
        (Graph.complete(5), 120),
        (Graph.star(4), 24),
        (PETERSEN, 120),
    ],
)
def test_group_orders(g, order):
    gens = automorphism_generators(g, [0] * g.n)
    assert group_order(g.n, gens) == order
    assert len(gens) <= g.n * (g.n - 1) // 2


@st.composite
def coloured_graphs(draw, max_n: int = 6):
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)
    )
    edges.extend((u, v) for u, v in extra if u != v)
    colour = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Graph(n, edges), colour


@given(coloured_graphs())
@settings(deadline=None)
def test_generators_match_brute_force(case):
    g, colour = case
    gens = automorphism_generators(g, colour)
    edges = set(g.edges)
    for p in gens:
        assert {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
        assert all(colour[p[v]] == colour[v] for v in range(g.n))
    everything = brute_force_group(g, colour)
    assert generated_group(g.n, gens) == everything
    assert group_order(g.n, gens) == len(everything)
    for v in range(g.n):
        assert orbit(v, gens) == {p[v] for p in everything}


@pytest.mark.parametrize("g", [Graph.complete(12), Graph.star(11)], ids=["K12", "K1,11"])
def test_set_up_stays_polynomial(g):
    # K12 has 12! automorphisms and K1,11 has 11!: listing them would never
    # reach the configuration cap, which a generating set reaches at once
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        cover_pebbling_number(g, Demand.unit(12), config_cap=10**4)
    assert time.perf_counter() - start < 1.0
