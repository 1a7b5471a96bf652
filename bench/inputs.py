"""Seeded inputs of the three workloads, as plain data and text.

A run is made of rounds.  Round ``r`` of a workload draws its inputs from
``random.Random(f"{workload}:{seed}:{r}")``, so a seed fixes every round and
no two rounds of a run hand the package the same input.  Nothing here
imports the package; the generators use only ``reference``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import distances, exact_cover_exists

# One cap for every search of the ladder and the decision mix.
NODE_CAP = 3_000_000


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- numbers-sweep -------------------------------------------------------------


@dataclass(frozen=True)
class NumberGraph:
    label: str
    family: str  # P, C, K or S (star); see reference.pebbling_number
    size: int
    n: int
    edges: tuple[tuple[int, int], ...]


def _family_edges(family: str, size: int) -> tuple[int, list[tuple[int, int]]]:
    if family == "P":
        return size, [(i, i + 1) for i in range(size - 1)]
    if family == "C":
        return size, [(i, (i + 1) % size) for i in range(size)]
    if family == "K":
        return size, [(i, j) for i in range(size) for j in range(i + 1, size)]
    return size + 1, [(0, i) for i in range(1, size + 1)]


# The graphs of ``scripts/number_table.py --max-size 5``, then C6.
NUMBER_GRAPHS = (
    [("P", s) for s in range(2, 6)]
    + [("C", s) for s in range(3, 6)]
    + [("K", s) for s in range(2, 6)]
    + [("S", s) for s in range(2, 5)]
    + [("C", 6)]
)


def number_graphs(rng: random.Random) -> list[NumberGraph]:
    """Every sweep graph under a fresh random vertex labelling.

    Relabelling keeps every number, the configurations checked and the
    solver calls a sweep makes, but gives each round graphs the package has
    not seen in this run.
    """
    out = []
    for family, size in NUMBER_GRAPHS:
        n, edges = _family_edges(family, size)
        perm = rng.sample(range(n), n)
        label = f"K_1,{size}" if family == "S" else f"{family}_{size}"
        relabelled = tuple(sorted((perm[u], perm[v]) for u, v in edges))
        out.append(NumberGraph(label, family, size, n, relabelled))
    return out


# -- x4c-ladder ------------------------------------------------------------------


@dataclass(frozen=True)
class LadderCase:
    label: str
    n: int
    sets: tuple[frozenset[int], ...]
    yes: bool
    text: str


# (n, slack m-n, has an exact cover, copies per round).  The n=3 slack-1
# yes-instance also runs with its sets in reverse order: the search meets
# the cover early in one order and late in the other, so the pair's cost
# varies less than either one's.  Four operations are faster than the n=2
# slack-1 no-instances and four slower, so the median operation falls in
# the middle of their cluster.
LADDER = (
    (2, 0, True, 2),
    (3, 0, True, 2),
    (2, 1, False, 6),
    (2, 1, True, 1),
    (3, 1, True, 1),
    (3, 1, False, 1),
)


def _x4c_text(n: int, sets) -> str:
    lines = [f"{n} {len(sets)}"]
    lines += [" ".join(str(e) for e in sorted(s)) for s in sets]
    return "\n".join(lines) + "\n"


def _draw_sets(rng: random.Random, n: int, slack: int, yes: bool) -> list[frozenset[int]]:
    """Sets that cover every element, with an exact cover iff ``yes``.

    A set family that leaves an element uncovered is never drawn: the
    cover reduction cannot build a connected graph for it.
    """
    universe = list(range(1, 4 * n + 1))
    while True:
        sets: list[frozenset[int]] = []
        if yes:
            rng.shuffle(universe)
            sets = [frozenset(universe[4 * i: 4 * i + 4]) for i in range(n)]
        while len(sets) < n + slack:
            s = frozenset(rng.sample(universe, 4))
            if s not in sets:
                sets.append(s)
        rng.shuffle(sets)
        if set().union(*sets) == set(universe) and exact_cover_exists(n, sets) == yes:
            return sets


def ladder_cases(rng: random.Random) -> list[LadderCase]:
    cases = []
    for n, slack, yes, copies in LADDER:
        for _ in range(copies):
            sets = _draw_sets(rng, n, slack, yes)
            orders = [sets, sets[::-1]] if (n, slack, yes) == (3, 1, True) else [sets]
            for order in orders:
                label = f"n{n} slack{slack} {'yes' if yes else 'no'}"
                cases.append(LadderCase(label, n, tuple(order), yes, _x4c_text(n, order)))
    return cases


# -- decide-mix --------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    n: int
    edges: tuple[tuple[int, int], ...]
    config: tuple[int, ...]
    demand: tuple[int, ...]
    text: str

    @property
    def names(self) -> list[str]:
        return [f"v{i}" for i in range(self.n)]


MIX_SIZE = 2000  # instances per round
MAX_VERTICES = 8


def _potential_ok(n, dist, config, demand) -> bool:
    """No vertex has negative dyadic potential (integers over 2**n)."""
    return all(
        sum((config[u] - demand[u]) << (n - dist[u][v]) for u in range(n)) >= 0
        for v in range(n)
    )


def _decision(rng: random.Random) -> Decision:
    """A random connected graph with a demand at the potential boundary.

    Pebbles sit on up to three vertices; demand is added one pebble at a
    time until the potential turns negative somewhere.  Three times in ten
    that last pebble stays, which the root potential check rejects; the
    rest sit just inside the boundary and split between solvable and
    unsolvable by search.
    """
    n = rng.randint(4, MAX_VERTICES)
    order = rng.sample(range(n), n)
    chosen = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        chosen.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.25:
                chosen.add((u, v))
    edges = tuple(sorted(chosen))
    dist = distances(n, edges)
    config = [0] * n
    sources = rng.sample(range(n), rng.randint(1, 3))
    for _ in range(rng.randint(4, 12)):
        config[rng.choice(sources)] += 1
    demand = [0] * n
    while True:
        v = rng.randrange(n)
        demand[v] += 1
        if not _potential_ok(n, dist, config, demand):
            if rng.random() >= 0.3:
                demand[v] -= 1
            break
    names = [f"v{i}" for i in range(n)]
    lines = ["vertices " + " ".join(names)]
    lines += [f"edge {names[u]} {names[v]}" for u, v in edges]
    lines += [f"config {names[v]} {x}" for v, x in enumerate(config) if x]
    lines += [f"demand {names[v]} {x}" for v, x in enumerate(demand) if x]
    return Decision(n, edges, tuple(config), tuple(demand), "\n".join(lines) + "\n")


def decisions(rng: random.Random) -> list[Decision]:
    return [_decision(rng) for _ in range(MIX_SIZE)]
