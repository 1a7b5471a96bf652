"""Shared enumeration helpers for the exhaustive and randomized suites."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter

from pebbling import Configuration, Demand, Graph, MoveList, is_cover_solvable


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """Every connected labeled simple graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graphs = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, b in zip(pairs, bits) if b]
        try:
            graphs.append(Graph(n, edges))
        except ValueError:
            continue
    return tuple(graphs)


def floyd_warshall(n: int, edges) -> list[list[int | None]]:
    """All-pairs shortest path lengths by Floyd-Warshall, None between
    vertices no path joins: a reference for ``Graph``'s distances."""
    inf = float("inf")
    dist = [[0 if u == v else inf for v in range(n)] for u in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return [[None if d == inf else d for d in row] for row in dist]


def directed_edges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Both orientations of every edge of ``g``, ascending by (from, to)."""
    return tuple(sorted([*g.edges, *((v, u) for u, v in g.edges)]))


def legal_moves(g: Graph, c: Configuration) -> list[tuple[int, int]]:
    """The moves open to ``c``: ordered adjacent pairs (u, w) with at
    least two pebbles on u, ascending by (u, w)."""
    if c.has_negative:
        raise ValueError("legal_moves needs a non-negative configuration")
    return [(u, w) for u in range(g.n) if c.counts[u] >= 2 for w in g.neighbors(u)]


def contains(c: Configuration, d: Demand) -> bool:
    """Whether ``c`` holds at least ``d``'s pebbles on every vertex."""
    return all(a >= b for a, b in zip(c.counts, d.counts))


def acyclic(ml: MoveList) -> bool:
    """Whether the support of ``ml``, the pairs it moves along, has no
    directed cycle."""
    support = TopologicalSorter()
    for u, w, _ in ml.items():
        support.add(w, u)
    try:
        support.prepare()
    except CycleError:
        return False
    return True


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for head in compositions(total - last, parts - 1):
            yield head + (last,)


def reference_threshold(g: Graph, demands) -> tuple[int, tuple[int, ...], int]:
    """(value, extremal counts, configurations counted) by plain enumeration.

    Sizes 1, 2, ... in turn; every configuration goes to the solver for every
    demand, with no dominance, until one fails.  A size passes when none
    fails; the witness is the colex-first failure of the last failing size.
    """
    witness = (0,) * g.n
    checked = 0
    k = 1
    while True:
        first_fail = None
        for counts in compositions(k, g.n):
            checked += 1
            c = Configuration(counts)
            if first_fail is None and not all(
                is_cover_solvable(g, c, d).solvable for d in demands
            ):
                first_fail = counts
        if first_fail is None:
            return k, witness, checked
        witness = first_fail
        k += 1


def small_universe(max_n: int = 4, max_pebbles: int = 5):
    """(graph, configuration, demand) triples used by the acceptance sweep."""
    for n in range(1, max_n + 1):
        demands = [Demand.unit(n)] + [Demand.reach(n, v) for v in range(n)]
        for g in connected_graphs(n):
            for k in range(max_pebbles + 1):
                for counts in compositions(k, n):
                    c = Configuration(counts)
                    for d in demands:
                        yield g, c, d


def random_connected_graph(rng: random.Random, max_n: int) -> Graph:
    n = rng.randint(1, max_n)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    extras = rng.randint(0, n)
    for _ in range(extras):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Graph(n, edges)


def random_tree(rng: random.Random, max_n: int) -> Graph:
    n = rng.randint(1, max_n)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_spread(rng: random.Random, n: int, total: int) -> tuple[int, ...]:
    counts = [0] * n
    for _ in range(total):
        counts[rng.randrange(n)] += 1
    return tuple(counts)


def core_dist(g: Graph, core) -> tuple[list[list[int]], int]:
    """``[z][x]``: ``dist(core[x], core[z])`` over the core positions, and
    the diameter taken among the core vertices."""
    dist = [[g.distance(x, z) for x in core] for z in core]
    return dist, max(map(max, dist))


def core_weight(g: Graph, core) -> list[list[int]]:
    """``[z][x]``: ``2 ** (diameter - dist(core[x], core[z]))`` over the
    core positions, the diameter taken among the core vertices."""
    dist, diam = core_dist(g, core)
    return [[1 << (diam - k) for k in row] for row in dist]


def root_potential(weight, val) -> list[int]:
    """The potential numerators of balances ``val`` over the core: per core
    position ``z``, ``sum(val[x] * weight[z][x])``."""
    return [sum(x * w for x, w in zip(val, row)) for row in weight]


def reference_uncoverable(into, val, succ, p) -> bool:
    """The solver's 2-cycle pass as a plain BFS that walks every layer.

    A deficit ``z`` fails when ``sum(val[x] << (n - dist(x, z)))`` is
    negative over the ``x`` that reach ``z`` along the arcs at positions
    ``>= p`` (``into[a]`` holds ``(tail, position)`` per arc into ``a``),
    leaving out any arc ``b -> a`` whose reverse is in the support ``succ``.
    """
    n = len(val)
    for z in range(n):
        if val[z] < 0:
            dist = [-1] * n
            dist[z] = 0
            queue = [z]
            total = 0
            while queue:
                nxt = []
                for a in queue:
                    total += val[a] << (n - dist[a])
                    for b, pos in into[a]:
                        if pos >= p and dist[b] < 0 and b not in succ[a]:
                            dist[b] = dist[a] + 1
                            nxt.append(b)
                queue = nxt
            if total < 0:
                return True
    return False


def collapse_leaf(
    g: Graph, c: Configuration, d: Demand, leaf: int
) -> tuple[Graph, Configuration, Demand]:
    """Remove the degree-1 vertex ``leaf``, folding its balance into the
    neighbour.

    A surplus at the leaf is worth half, floored, to the neighbour; a
    deficit costs the neighbour double.  The folded configuration is
    solvable (in the signed sense) exactly when the original is: the
    reference for the solver's pendant-tree fold, one leaf at a time.
    """
    (nbr,) = g.neighbors(leaf)
    surplus = c.counts[leaf] - d.counts[leaf]
    credit = surplus // 2 if surplus >= 0 else 2 * surplus
    keep = [v for v in range(g.n) if v != leaf]
    h, remap = g.induced_subgraph(keep)
    new_counts = [c.counts[v] for v in keep]
    new_counts[remap[nbr]] += credit
    cfg = Configuration(
        tuple(new_counts),
        extended=c.extended or any(x < 0 for x in new_counts),
    )
    return h, cfg, Demand(tuple(d.counts[v] for v in keep))


def fold_to_one_vertex(g: Graph, c: Configuration, d: Demand) -> bool:
    """Solvability of a tree by collapsing leaves, lowest index first.

    Each collapse is exact, so the one vertex left decides the tree by the
    sign of its balance.  Independent of the solver's own peel order.
    """
    while g.n > 1:
        leaf = min(v for v in range(g.n) if len(g.neighbors(v)) == 1)
        g, c, d = collapse_leaf(g, c, d, leaf)
    return c.counts[0] >= d.counts[0]
