"""Reference answers worked out apart from the ``pebbling`` package.

Nothing here imports the package.  A graph is a vertex count ``n`` and an
edge list over ``0 .. n-1``; configurations and demands are tuples of ints;
a move list is a list of ``(from, to, count)`` triples.  Every ``check_*``
function returns a list of problems, empty when the answer is right, so
that ``selftest.py`` can show each one rejecting a planted wrong answer.
"""

from __future__ import annotations

from itertools import combinations


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def distances(n: int, edges) -> list[list[int]]:
    """All-pairs distances by breadth-first search."""
    adj = adjacency(n, edges)
    table = []
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = [source]
        for a in queue:
            for b in adj[a]:
                if dist[b] < 0:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        if min(dist) < 0:
            raise ValueError("graph is not connected")
        table.append(dist)
    return table


def solvable(n: int, edges, config, demand) -> bool:
    """Breadth-first search over configurations reachable by pebbling moves.

    Every move removes one pebble, so the configurations one move apart form
    levels of falling size; the search stops once a level holds fewer
    pebbles than the demand.
    """
    adj = adjacency(n, edges)
    wanted = [(k, d) for k, d in enumerate(demand) if d]
    need = sum(demand)
    total = sum(config)
    level = {tuple(config)}
    while True:
        for state in level:
            if all(state[k] >= d for k, d in wanted):
                return True
        total -= 1
        if total < need:
            return False
        following = set()
        for state in level:
            for u in range(n):
                if state[u] >= 2:
                    nxt = list(state)
                    nxt[u] -= 2
                    for w in adj[u]:
                        nxt[w] += 1
                        following.add(tuple(nxt))
                        nxt[w] -= 1
        level = following


def tally(n: int, edges, config, demand, moves) -> list[str]:
    """Problems with a move list as a certificate: every pair must be an
    edge and every vertex must end with at least its demand."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    final = list(config)
    problems = []
    for u, w, q in moves:
        if q < 1:
            problems.append(f"move {u}->{w} has count {q}")
        if (min(u, w), max(u, w)) not in edge_set:
            problems.append(f"move {u}->{w} is not on an edge")
            continue
        final[u] -= 2 * q
        final[w] += q
    short = [k for k in range(n) if final[k] < demand[k]]
    if short:
        problems.append(f"certificate leaves vertices {short} below their demand")
    return problems


def read_certificate(text: str, names) -> list[tuple[int, int, int]]:
    """Move triples from certificate text, names resolved to indices."""
    index = {name: i for i, name in enumerate(names)}
    moves = []
    for line in text.splitlines():
        if line.strip():
            key, frm, to, count = line.split()
            if key != "move":
                raise ValueError(f"not a move line: {line!r}")
            moves.append((index[frm], index[to], int(count)))
    return moves


def exact_cover_exists(n: int, sets) -> bool:
    """Brute force: do some n of the sets partition {1 .. 4n}?"""
    universe = set(range(1, 4 * n + 1))
    return any(
        set().union(*chosen) == universe
        for chosen in combinations(sets, n)
        if sum(len(s) for s in chosen) == 4 * n
    )


def is_exact_cover(n: int, sets, chosen) -> bool:
    picked = [sets[i] for i in chosen]
    return (
        len(set(chosen)) == n
        and sum(len(s) for s in picked) == 4 * n
        and set().union(*picked) == set(range(1, 4 * n + 1))
    )


def cover_number(n: int, edges) -> int:
    """Unit-demand cover pebbling number, by Sjostrand's cover pebbling
    theorem: the largest cost of serving every vertex from one stack."""
    return max(sum(1 << d for d in row) for row in distances(n, edges))


def pebbling_number(family: str, size: int) -> int:
    """Closed forms for the families of the number sweep.

    ``size`` is the vertex count, except for stars, where it is the number
    of leaves.
    """
    if family == "P":
        return 1 << (size - 1)
    if family == "K":
        return size
    if family == "S":
        return size + 2
    if family == "C":
        k = size // 2
        if size % 2 == 0:
            return 1 << k
        return 2 * ((1 << (k + 1)) // 3) + 1
    raise ValueError(f"no closed form for family {family!r}")


# -- checks ------------------------------------------------------------------


def check_decision(n, edges, config, demand, verdict, moves) -> list[str]:
    """A solvability verdict, and its certificate when it says solvable."""
    expected = solvable(n, edges, config, demand)
    if verdict != expected:
        return [f"verdict {verdict}, the oracle says {expected}"]
    if verdict:
        return tally(n, edges, config, demand, moves)
    return []


def check_number(kind, family, size, n, edges, value, witness) -> list[str]:
    """A cover (``kind == "gamma"``) or pebbling (``"pi"``) number against
    its closed form, and its extremal witness against the oracle: the
    witness has ``value - 1`` pebbles and fails."""
    if kind == "gamma":
        expected = cover_number(n, edges)
    else:
        expected = pebbling_number(family, size)
    problems = []
    if value != expected:
        problems.append(f"{kind} is {value}, the closed form gives {expected}")
    if sum(witness) != value - 1:
        problems.append(f"witness has {sum(witness)} pebbles, not {value - 1}")
    if kind == "gamma":
        fails = not solvable(n, edges, witness, (1,) * n)
    else:
        fails = any(
            not solvable(n, edges, witness, tuple(int(k == v) for k in range(n)))
            for v in range(n)
        )
    if not fails:
        problems.append(f"witness {tuple(witness)} does not fail")
    return problems


def check_x4c(n, sets, verdict, red_n, red_edges, red_config, red_demand, moves):
    """A verdict on the reduced instance of an exact-cover instance, against
    brute-force exact cover, and its certificate on the reduced instance."""
    expected = exact_cover_exists(n, sets)
    if verdict != expected:
        return [f"verdict {verdict}, brute-force exact cover says {expected}"]
    if verdict:
        return tally(red_n, red_edges, red_config, red_demand, moves)
    return []


def check_number_witness(n, sets, cover, names, witness, reachable) -> list[str]:
    """The threshold-reduction witness of an exact cover: 31 pebbles below
    each covering set, 15 below every other set, and (the paper's claim)
    no pebble can reach the target from it."""
    problems = []
    if not is_exact_cover(n, sets, cover):
        return [f"{cover} is not an exact cover"]
    want = [0] * len(names)
    for i in range(len(sets)):
        want[names.index(f"b{i + 1}'''")] = 31 if i in cover else 15
    if list(witness) != want:
        problems.append("witness is not 31 below covering sets and 15 below the rest")
    if reachable:
        problems.append("the witness reaches the target")
    return problems
