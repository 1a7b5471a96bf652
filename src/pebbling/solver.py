"""Exact deciders for pebbling solvability.

Two independent engines answer the same question:

* :func:`oracle_solvable` walks the configuration space breadth-first,
  following the move-sequence definition verbatim.  It is the ground truth
  at small scale and the reference the move-list solver is tested against.

* :func:`is_cover_solvable` searches directly over move lists.  Each call
  that gets past the root checks builds its own tables: one weight table
  over the core, ``2**(diam - dist)`` per vertex pair in O(n**2), which
  serves the root potentials and every move's change to them, and the arcs
  with their in-arcs, already in its branching order, in O(arcs); nothing
  is kept on the graph.  The search runs on an explicit stack, one frame
  per edge position, so it never touches the interpreter's recursion
  limit.  The move budget is iteratively deepened (doubling) up to
  ``|C| - |D|``, past which no list can work: each move loses one pebble
  net, so longer lists cannot end above the demand.  Each move lifts the
  deficit by at most one, so the deepening starts at the first doubling
  that reaches the folded deficit; the levels below it would close at the
  root with no node.  Per-directed-edge counts are branched deficit
  first: the arcs into every vertex short of pebbles, grouped by head in
  order of its root potential margin, the tightest first, then by tail,
  and then the rest in ascending (from, to) order, so the deficit nearest
  to failing is forced first (a deficit with no in-arcs left must be
  lifted at once).
  Higher counts are tried first, restricted to cycle-free supports;
  partial assignments are pruned as soon as the outstanding per-vertex
  deficits exceed the remaining budget, a vertex with no incoming edges
  left cannot reach its demand, the exact potential goes negative
  anywhere, or a deficit has a negative potential over the
  still-assignable arcs that close no 2-cycle.  That last check walks back
  from each deficit a layer at a time and stops once its sign is settled:
  after depth ``d`` each vertex not yet summed weighs at most
  ``2**(n - d - 1)``, so the deficit and surplus not yet summed bound the
  rest of the sum, and the early verdict is the one the full walk would
  give.

Pendant trees are folded away before the search, so it only ever runs on
the 2-core, the subgraph left once degree-1 vertices are peeled off
repeatedly (a tree peels down to one vertex).  The fold rule: a peeled
leaf with balance ``b`` (pebbles minus demand, its own folded leaves
included) is removed, and its neighbour's balance rises by ``b // 2`` when
``b >= 0`` and falls by ``2 * |b|`` when ``b < 0``.  The fold is exact.
The leaf touches the rest only through its one edge, and dropping one move
each way along it only raises both tallies, so some solution moves along
it one way only; then at most ``b // 2`` moves can leave a surplus, and at
least ``|b|`` must feed a deficit, each costing the neighbour two pebbles.
A core certificate lifts back by exactly those moves, ``(leaf, nbr, b //
2)`` or ``(nbr, leaf, |b|)``, which leave every leaf at a non-negative
tally and every neighbour at its folded balance.  Then, in reverse peel
order, each surplus move is cut by what its neighbour has to spare (final
tally minus demand); a cut raises the leaf's tally by two, so the lifted
list still verifies.  Pendant edges are bridges and each carries moves one
way only, so the lifted support stays cycle-free.  Distances between core
vertices are the graph's own, since a shortest path never enters a
pendant tree.

The root check runs once, on the folded core: the potential of each core
vertex, from the one kernel :func:`pebbling.core.potentials` over the
call's weight table, and the pebble budget.  Only when it rejects does the
call name the original graph's first negative potential, as
:func:`pebbling.core.gamma_witness` would: when nothing was peeled the core
is the whole graph and its potentials are already those, and otherwise they
are computed once more on the whole graph.  That costs nothing in
exactness, because folding never raises the potential at a vertex that
stays.  A leaf with balance ``b`` off ``a`` adds ``b * 2**-(dist(a, y) +
1)`` at ``y``; folded, it adds ``(b // 2) * 2**-dist(a, y)`` or ``2b *
2**-dist(a, y)``, no more either way.  And if the leaf's own potential ``b
+ Q / 2`` is negative, ``Q`` the potential at ``a`` of every other vertex,
then ``Q < -2b``, so ``a`` is left negative: ``Q + b // 2 < -1.5b <= 0``
when ``b >= 0``, ``Q + 2b < 0`` when not.  By induction over the peel, a
negative potential anywhere leaves one on the folded core, so every witness
is found by a check that rejects.

The decision problem is NP-complete, so every search takes a node cap and
raises :class:`BudgetExceeded` rather than ever guessing; "gave up" is
never reported as "unsolvable".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (
    BudgetExceeded,
    Configuration,
    Demand,
    Graph,
    MoveList,
    _balances,
    _check_dims,
    potentials,
    weights,
)

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solvability query.

    ``certificate`` is present iff solvable and always verifies with an
    acyclic support; ``witness`` is the lowest-index vertex of negative
    potential, set only when the root check decided unsolvability and some
    potential is negative.
    """

    solvable: bool
    certificate: MoveList | None
    witness: int | None
    nodes_expanded: int
    max_depth: int

    @property
    def status(self) -> str:
        return "solvable" if self.solvable else "unsolvable"


@dataclass(frozen=True)
class CanonicalResult:
    """Per-vertex reachability verdicts plus the combined answer."""

    canonical: bool
    unreachable: tuple[int, ...]


def oracle_solvable(
    g: Graph,
    c: Configuration,
    d: Demand,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """Breadth-first search over configurations reachable by legal moves.

    The literal definition of solvability: intended for small instances
    (roughly up to 9 vertices and 12 pebbles).  Visited configurations are
    memoized; termination is guaranteed because every move shrinks the
    pebble count.
    """
    _check_dims(g, c, d)
    if c.has_negative:
        raise ValueError("the oracle needs a non-negative configuration")
    dc = d.counts
    start = c.counts
    if all(a >= b for a, b in zip(start, dc)):
        return True
    n = g.n
    neighbors = [g.neighbors(u) for u in range(n)]
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for u in range(n):
            if cur[u] < 2:
                continue
            for w in neighbors[u]:
                nxt = list(cur)
                nxt[u] -= 2
                nxt[w] += 1
                t = tuple(nxt)
                if t in seen:
                    continue
                if all(a >= b for a, b in zip(t, dc)):
                    return True
                seen.add(t)
                if len(seen) > state_cap:
                    raise BudgetExceeded(
                        f"oracle visited more than {state_cap} configurations"
                    )
                queue.append(t)
    return False


def _peel(g: Graph) -> tuple[list[tuple[int, int]], list[int]]:
    """The pendant trees of ``g``, peeled in O(n + edges).

    Returns the ``(leaf, neighbour)`` pairs, each leaf peeled before its
    neighbour, and the vertices of the 2-core left over, ascending.
    """
    adj = g._adj
    deg = [len(nbrs) for nbrs in adj]
    peel: list[tuple[int, int]] = []
    leaves = [v for v, k in enumerate(deg) if k == 1]
    for leaf in leaves:  # grows as peeling makes new leaves
        if len(peel) == g.n - 1:
            break  # a tree: one vertex left
        (nbr,) = [x for x in adj[leaf] if deg[x]]
        peel.append((leaf, nbr))
        deg[leaf] = 0
        deg[nbr] -= 1
        if deg[nbr] == 1:
            leaves.append(nbr)
    gone = {leaf for leaf, _ in peel}
    return peel, [v for v in range(g.n) if v not in gone]


def is_cover_solvable(
    g: Graph,
    c: Configuration,
    d: Demand,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SolveResult:
    """Exact decision by branch and bound over move lists.

    The search runs on the 2-core of ``g`` with the pendant trees folded in,
    and its certificate is lifted back to ``g`` (see the module docstring);
    a tree is decided by the sign of the one vertex it folds to.  Accepts
    signed configurations.  When solvable, the returned certificate
    verifies and has a cycle-free support.  Its moves on the core number at
    most the deepening level at which they were found (so near-minimal, a
    byproduct of the schedule rather than a promise); each pendant leaf
    passes on only the surplus that its neighbour cannot spare.
    """
    base = _balances(g, c, d)
    if all(x >= 0 for x in base):
        return SolveResult(True, MoveList(), None, 0, 0)

    peel, core = _peel(g)
    bal = base[:]  # fold each pendant tree into its attachment vertex
    for leaf, nbr in peel:
        b = bal[leaf]
        bal[nbr] += b // 2 if b >= 0 else 2 * b
    val = [bal[v] for v in core]
    nodes = 0
    max_depth = 0
    moves: list[tuple[int, int, int]] = []
    if min(val) < 0:
        # the root checks on the folded core: a negative potential, or too
        # few pebbles, as each move nets -1.  A rejection names the original
        # graph's first negative potential, if any (see the module docstring).
        # One weight table serves this check and every search node
        dist = [[g._dist[z][x] for x in core] for z in core] if peel else g._dist
        weight = weights(dist, max(map(max, dist)))
        pot = potentials(val, weight)
        budget = sum(val)
        if min(pot) < 0 or budget <= 0:
            if peel:  # with nothing peeled, pot is already the whole graph's
                pot = potentials(base, weights(g._dist, g.diameter))
            witness = next((v for v, x in enumerate(pot) if x < 0), None)
            return SolveResult(False, None, witness, 0, 0)
        edges, into = _arcs(g, core, val, pot)
        # Deepen the move budget geometrically up to the pebble-loss bound;
        # the final level alone is exhaustive, so unsolvability costs one
        # bounded pass while solvable instances exit at a level near their
        # minimum.  Each move lifts the deficit by at most one, so a level
        # below the folded deficit would close at the root: the deepening
        # starts at the first doubling that reaches it.
        level = 1 << (sum(-x for x in val if x < 0) - 1).bit_length()
        while True:
            level = min(level, budget)
            solution, nodes, max_depth = _search(
                edges, weight, into, val, pot, level, node_cap, nodes, max_depth
            )
            if solution is not None:
                break
            if level == budget:
                return SolveResult(False, None, None, nodes, max_depth)
            level <<= 1
        moves = [(core[u], core[w], q) for (u, w), q in zip(edges, solution)]
    if peel:
        # lift the core's moves back through the pendant trees, then trim
        # them in reverse peel order (see the module docstring).  A deficit's
        # move ends at a leaf with nothing to spare, so it keeps its count.
        lift = [
            (leaf, nbr, bal[leaf] // 2) if bal[leaf] >= 0 else (nbr, leaf, -bal[leaf])
            for leaf, nbr in peel
        ]
        spare = base[:]
        for u, w, q in moves + lift:
            spare[u] -= 2 * q
            spare[w] += q
        for i in range(len(lift) - 1, -1, -1):
            u, w, q = lift[i]
            cut = min(q, spare[w])
            if cut > 0:
                lift[i] = (u, w, q - cut)
                spare[w] -= cut
                spare[u] += 2 * cut
        moves += lift
    return SolveResult(True, MoveList(moves), None, nodes, max_depth)


def _arcs(
    g: Graph, core: list[int], val: list[int], pot: list[int]
) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """The core's arcs in this call's branching order, with their in-arcs.

    Arcs join core positions.  The arcs into each vertex short of pebbles
    come first, grouped by head in ascending ``(pot[head], head)`` and by
    tail within a head, so the q_min rule forces the deficit with the least
    root potential margin first (fail-first); the rest follow in ascending
    (from, to) order.  ``into[a]`` holds ``(u, p)`` per arc ``edges[p] =
    (u, a)``, by ``p``.
    """
    pos = {v: i for i, v in enumerate(core)}
    nbrs = [[pos[x] for x in g._adj[v] if x in pos] for v in core]
    heads = sorted((pot[a], a) for a, x in enumerate(val) if x < 0)
    edges = [(u, a) for _, a in heads for u in nbrs[a]]
    edges += [(u, w) for u, out in enumerate(nbrs) for w in out if val[w] >= 0]
    into: list[list[tuple[int, int]]] = [[] for _ in core]
    for p, (u, w) in enumerate(edges):
        into[w].append((u, p))
    return edges, into


def _reaches(succ: list[set[int]], a: int, b: int) -> bool:
    """Is ``b`` reachable from ``a`` along the support arcs ``succ``?"""
    if a == b:
        return True
    stack = [a]
    seen = {a}
    while stack:
        x = stack.pop()
        for y in succ[x]:
            if y == b:
                return True
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def _uncoverable(
    into: list[list[tuple[int, int]]], val: list[int], succ: list[set[int]],
    p: int, def_sum: int, pos_sum: int
) -> bool:
    """Is some deficit beyond cover through the remaining arcs, ``edges[p:]``?

    A deficit ``z`` can still be covered only if ``sum(val[x] << (n -
    dist(x, z)))`` over the ``x`` that reach ``z`` along those arcs is
    non-negative (halving per step); an arc whose reverse already carries
    moves would close a 2-cycle, so it cannot serve ``z``.  The BFS walks
    back from ``z`` and sums each layer as it finds it, before expanding it.
    Once depth ``d`` is summed, every vertex left weighs at most ``1 << k``,
    ``k = n - d - 1``, so with ``neg`` and ``pos`` the deficit and surplus
    not yet summed the full sum lies in ``[total - (neg << k), total + (pos
    << k)]``; the walk stops once that range is on one side of zero, so the
    verdict is the full walk's.  ``def_sum`` and ``pos_sum`` are the deficit
    and surplus of all of ``val``.
    """
    n = len(val)
    for z, vz in enumerate(val):
        if vz >= 0:
            continue
        seen = [False] * n
        seen[z] = True
        layer = [z]
        total = vz << n
        neg, pos = def_sum + vz, pos_sum  # the deficit and surplus not yet summed
        k = n - 1
        while total < neg << k:
            if total + (pos << k) < 0:
                return True
            nxt = []
            for a in layer:
                sa = succ[a]
                for b, q in into[a]:
                    if q >= p and not seen[b] and b not in sa:
                        seen[b] = True
                        nxt.append(b)
                        x = val[b]
                        total += x << k
                        if x < 0:
                            neg += x
                        else:
                            pos -= x
            if not nxt:
                break
            layer = nxt
            k -= 1
        if total < 0:  # only when the walk ran out of layers
            return True
    return False


def _search(
    edges: list[tuple[int, int]],
    weight: list[list[int]],
    into: list[list[tuple[int, int]]],
    val: list[int],
    pot: list[int],
    level: int,
    node_cap: int,
    nodes: int,
    max_depth: int,
) -> tuple[list[int] | None, int, int]:
    """One depth-first pass over move lists of at most ``level`` moves.

    ``edges`` and ``into`` are those of :func:`_arcs`, and ``weight`` is
    the call's weight table, the one :func:`pebbling.core.potentials` read
    for ``pot``: ``q`` moves on ``(u, w)`` add ``q * (weight[w][z] - 2 *
    weight[u][z])`` to ``z``'s numerator.  The stack holds one frame per
    open edge position, so when every deficit is met the counts of a
    solution are read off it, one per position up to the current one (the
    rest are zero).  Only ``val`` (balances) and the support are updated in
    place and restored on the way back; each child's potential numerators
    are a new list, and its frame keeps the parent's, so ``pot`` is never
    written.  Returns those counts or None, with the running node count and
    deepest move total.
    """
    # last[x]: the position of the last arc into x, or -1 when there is none
    last = [arcs[-1][1] if arcs else -1 for arcs in into]
    succ: list[set[int]] = [set() for _ in val]
    def_sum = sum(-x for x in val if x < 0)
    val_sum = sum(val) - level  # sum(val) is val_sum + r: each move nets -1
    stack: list[tuple] = []
    p = 0
    r = level
    while True:
        # Enter the node at position p with r moves left; if it opens, set up
        # its count loop (u, w, vu, vw, q, q_min, delta).
        if def_sum == 0:
            # every deficit met: each frame holds its position's count q at
            # index 6, and zeros on the remaining edges finish the list
            return [frame[6] for frame in stack], nodes, max_depth
        backtrack = True
        if def_sum <= r:
            if level - r > max_depth:
                max_depth = level - r
            # the 2-cycle pass: every deficit must still be coverable through
            # the remaining arcs (past the last arc, none is).  Each deficit's
            # walk stops once the layers left, weighing at most 1 << (n - d -
            # 1) after depth d, cannot change the sign of its sum, so it
            # prunes exactly as the full walk would.
            pos_sum = val_sum + r + def_sum
            if not _uncoverable(into, val, succ, p, def_sum, pos_sum):
                u, w = edges[p]
                vu = val[u]
                vw = val[w]
                # q is capped by u's worst-case balance: out-moves cost 2
                # apiece and at most r - q future moves can feed u back.
                if last[u] > p:
                    q_max = (vu + r) // 3
                else:
                    q_max = vu // 2
                if q_max > r:
                    q_max = r
                if q_max > 0 and _reaches(succ, w, u):
                    q_max = 0  # a positive count here would close a cycle
                # w with no later in-edges must be lifted to balance by this edge
                q_min = -vw if last[w] == p and vw < 0 else 0
                if q_max >= q_min:
                    q = q_max + 1
                    backtrack = False

        # Pick the next count at the deepest open position and descend, or
        # back up a position once its counts run out.
        while True:
            if backtrack:
                if not stack:
                    return None, nodes, max_depth
                p, r, u, w, vu, vw, q, q_min, old_def, pot = stack.pop()
                if q:
                    succ[u].discard(w)
                    val[u] = vu
                    val[w] = vw
                    def_sum = old_def
                backtrack = False
            q -= 1
            if q < q_min:
                backtrack = True
                continue
            nodes += 1
            if nodes > node_cap:
                raise BudgetExceeded(f"solver exceeded node cap {node_cap}")
            if q == 0:
                stack.append((p, r, u, w, vu, vw, 0, q_min, def_sum, pot))
                p += 1
                break
            nvu = vu - 2 * q
            nvw = vw + q
            # incremental deficit update: only u and w changed
            ndef = def_sum
            if vu < 0:
                ndef += vu
            if nvu < 0:
                ndef -= nvu
            if vw < 0:
                ndef += vw
            if nvw < 0:
                ndef -= nvw
            # a separate, budget-based prune: the deficits left must fit in
            # the moves left, which the potential below never sees; being
            # O(1), it runs before the O(n) potential and push
            if ndef > r - q:
                continue
            # exact potential: prune if it dips below zero anywhere
            child = [a + q * (b - 2 * c) for a, b, c in zip(pot, weight[w], weight[u])]
            if min(child) < 0:
                continue
            val[u] = nvu
            val[w] = nvw
            succ[u].add(w)  # each arc has one position, so it is new here
            stack.append((p, r, u, w, vu, vw, q, q_min, def_sum, pot))
            pot = child
            def_sum = ndef
            p += 1
            r -= q
            break


def is_reachable(
    g: Graph,
    c: Configuration,
    target: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SolveResult:
    """Can one pebble be moved onto ``target``?  Exact, with certificate."""
    return is_cover_solvable(
        g, c, Demand.reach(g.n, target), node_cap=node_cap
    )


def is_canonical_solvable(
    g: Graph,
    c: Configuration,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> CanonicalResult:
    """Is every vertex reachable?  Reports the unreachable ones."""
    if c.has_negative:
        raise ValueError("canonical solvability needs a non-negative configuration")
    unreachable = tuple(
        v for v in range(g.n) if not is_reachable(g, c, v, node_cap=node_cap).solvable
    )
    return CanonicalResult(not unreachable, unreachable)
