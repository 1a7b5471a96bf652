"""Exact cover by 4-sets, and the three pebbling hardness constructions.

An exact-cover-by-4-sets instance is a universe of 4n elements together
with m >= n four-element subsets; a yes-instance admits n pairwise
disjoint subsets covering the universe.  The three builders here translate
such instances (or pebbling instances) into

* a unit-demand cover solvability instance that is solvable iff an exact
  cover exists (:func:`reduce_to_cover_solvability`),
* a canonical-solvability instance equivalent to a given unit-demand
  instance (:func:`reduce_cover_to_canonical`), and
* a reachability-number threshold instance whose cover pebbling number
  exceeds ``15m + 16n`` iff an exact cover exists
  (:func:`reduce_to_number_threshold`),

together with the explicit certificates and witness configurations their
correctness arguments use.  The biconditionals themselves are exercised by
the test suite at small scale; nothing here assumes them.

Elements and sets are 1-based in files and reports, 0-based in code.
Every built graph carries a name and a role tag per vertex so the
constructions can be audited against their drawings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import Configuration, Demand, Graph, MoveList, PebblingError, _check_dims


class MalformedInstance(PebblingError):
    """The exact-cover instance violates its shape constraints.

    ``set_number`` is the 1-based offending set, or 0 when no one set is at
    fault.
    """

    def __init__(self, message: str, set_number: int = 0):
        super().__init__(message)
        self.set_number = set_number


class NotACover(PebblingError):
    """The provided set selection is not an exact cover."""


@dataclass(frozen=True)
class X4CInstance:
    """Universe {1 .. 4n} plus m four-element subsets, m >= n."""

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise MalformedInstance("universe parameter n must be positive")
        object.__setattr__(
            self, "sets", tuple(frozenset(s) for s in self.sets)
        )
        if len(self.sets) < self.n:
            raise MalformedInstance(
                f"need at least n={self.n} sets, got {len(self.sets)}"
            )
        for i, s in enumerate(self.sets, start=1):
            if len(s) != 4:
                raise MalformedInstance(f"set {i} has {len(s)} elements, not 4", i)
            if not all(1 <= e <= 4 * self.n for e in s):
                raise MalformedInstance(f"set {i} leaves the universe 1..{4 * self.n}", i)

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def universe(self) -> frozenset[int]:
        return frozenset(range(1, 4 * self.n + 1))


@dataclass(frozen=True)
class ReducedInstance:
    """A pebbling instance produced by one of the three constructions.

    ``vertex_names`` are unique, human-auditable labels ("t3", "b2'", ...)
    and ``vertex_roles`` tags each vertex with its construction class, so
    the role map covers every vertex exactly once.  ``demand`` is set for
    the cover construction; ``target`` for the canonical and threshold
    constructions; ``threshold`` only for the threshold construction.
    """

    kind: str
    graph: Graph
    config: Configuration
    vertex_names: tuple[str, ...]
    vertex_roles: tuple[str, ...]
    demand: Demand | None = None
    target: int | None = None
    threshold: int | None = None
    trivial: bool = False

    def __post_init__(self) -> None:
        if len(self.vertex_names) != self.graph.n or len(self.vertex_roles) != self.graph.n:
            raise ValueError("names and roles must cover every vertex exactly once")
        if len(set(self.vertex_names)) != self.graph.n:
            raise ValueError("vertex names must be unique")


def x4c_solve(inst: X4CInstance) -> list[int] | None:
    """Some exact cover as 0-based set indices, or None.

    Backtracks on the lowest uncovered element, trying the sets that
    contain it in ascending index order, so the returned cover is
    deterministic.  The backtracking runs on an explicit stack, so a cover
    of any size stays clear of the interpreter's recursion limit.
    """
    universe = inst.universe
    sets = inst.sets
    containing: dict[int, list[int]] = {e: [] for e in universe}
    for i, s in enumerate(sets):
        for e in s:
            containing[e].append(i)
    chosen: list[int] = []  # the set chosen for each open element, lowest first
    untried: list[Iterator[int]] = []  # per open element, its sets not yet tried
    covered: frozenset[int] = frozenset()
    while covered != universe:
        untried.append(iter(containing[min(universe - covered)]))
        while (i := next((j for j in untried[-1] if not covered & sets[j]), None)) is None:
            untried.pop()
            if not untried:
                return None
            covered -= sets[chosen.pop()]
        chosen.append(i)
        covered |= sets[i]
    return chosen


def _check_cover(inst: X4CInstance, cover: list[int]) -> None:
    if len(set(cover)) != len(cover) or not all(0 <= i < inst.m for i in cover):
        raise NotACover("cover must be distinct valid set indices")
    union: set[int] = set()
    total = 0
    for i in cover:
        union.update(inst.sets[i])
        total += 4
    if total != len(union) or union != set(inst.universe):
        raise NotACover("selected sets do not partition the universe")


def _set_gadget(
    inst: X4CInstance, layers: int
) -> tuple[list[str], list[str], list[tuple[int, int]]]:
    """Names, roles and edges of the part both X4C constructions share.

    The element vertices ``t1 .. t4n`` come first, then ``layers`` layers of
    m set vertices each: ``b1 .. bm`` (role B), ``b1' .. bm'`` (B'), and so
    on with one more prime per layer.  Each set vertex b is joined to the
    elements of its set, and each layer's i-th vertex to the next layer's,
    so every set trails a chain b - b' - b'' ...
    """
    n, m = inst.n, inst.m
    names = [f"t{j + 1}" for j in range(4 * n)]
    roles = ["T"] * (4 * n)
    for k in range(layers):
        names += [f"b{i + 1}" + "'" * k for i in range(m)]
        roles += ["B" + "'" * k] * m
    b0 = 4 * n
    edges = [(b0 + i, e - 1) for i, s in enumerate(inst.sets) for e in s]
    edges += [(x, x + m) for x in range(b0, b0 + (layers - 1) * m)]
    return names, roles, edges


def reduce_to_cover_solvability(inst: X4CInstance) -> ReducedInstance:
    """Unit-demand cover solvability instance equivalent to ``inst``.

    Layout: element vertices T (degree to the B's that contain them), set
    vertices B each chained b - b' - b'' to a collector v, and a path of
    m - n further edges from v to a terminus w.  Pebbles: 9 on each b, 1 on
    the chain interiors and path interiors, ``2**(m-n) - (m-n) + 1`` on v,
    0 on T and w.  For m = n the path degenerates and w is identified with
    v, whose load becomes 2; that keeps the equivalence at the boundary
    (the collector then only has to end with a pebble on itself).

    An element in no set would leave its T vertex isolated, so such an
    instance is refused with :class:`MalformedInstance`.
    """
    uncovered = sorted(inst.universe.difference(*inst.sets))
    if uncovered:
        raise MalformedInstance(
            f"elements {', '.join(map(str, uncovered))} lie in no set"
        )
    n, m = inst.n, inst.m
    span = m - n
    names, roles, edges = _set_gadget(inst, 3)
    # the path v, u1 .. u(m-n-1), w; for m = n it is v alone, and w is v
    v = len(names)
    path = list(range(v, v + span + 1))
    names += ["v"] + [f"u{j + 1}" for j in range(span - 1)] + ["w"] * (span > 0)
    roles += ["v"] + ["u"] * (span - 1) + ["w"] * (span > 0)
    edges += [(v - m + i, v) for i in range(m)]  # each b'' to v
    edges += zip(path, path[1:])
    # in vertex order: T, b, b', b'', v, the u's, w
    counts = (
        [0] * (4 * n) + [9] * m + [1] * (2 * m)
        + [(1 << span) - span + 1] + [1] * (span - 1) + [0] * (span > 0)
    )

    graph = Graph(len(names), edges)
    return ReducedInstance(
        kind="cover",
        graph=graph,
        config=Configuration(tuple(counts)),
        vertex_names=tuple(names),
        vertex_roles=tuple(roles),
        demand=Demand.unit(graph.n),
    )


def cover_certificate_from_exact_cover(
    inst: X4CInstance, cover: list[int]
) -> MoveList:
    """The explicit move list that solves the reduced instance of a cover.

    Each covering set vertex spends 8 pebbles to put one pebble on each of
    its four element vertices; each spare set vertex pushes 8 pebbles down
    its chain (4, then 2, then 1 arriving at the collector); the collector
    cascades one pebble down the path, halving at every step.
    """
    _check_cover(inst, cover)
    n, m = inst.n, inst.m
    span = m - n
    t0, b0 = 0, 4 * n
    bp0, bpp0 = b0 + m, b0 + 2 * m
    v = b0 + 3 * m
    moves: dict[tuple[int, int], int] = {}
    in_cover = set(cover)
    for i in range(m):
        if i in in_cover:
            for e in inst.sets[i]:
                moves[b0 + i, t0 + e - 1] = 1
        else:
            moves[b0 + i, bp0 + i] = 4
            moves[bp0 + i, bpp0 + i] = 2
            moves[bpp0 + i, v] = 1
    path = [v] + [v + 1 + j for j in range(span - 1)] + ([v + span] if span else [])
    for step, (a, b) in enumerate(zip(path, path[1:])):
        moves[a, b] = 1 << (span - 1 - step)
    return MoveList(moves)


def reduce_cover_to_canonical(g: Graph, c: Configuration) -> ReducedInstance:
    """Canonical-solvability instance equivalent to unit-cover solvability.

    With at least ``2**n`` pebbles the input is already solvable, so the
    output is a trivially canonical single-vertex instance; a single-vertex
    input passes through unchanged (the two notions coincide there).
    Otherwise the graph is copied (one extra pebble per vertex), every copy
    vertex gets a length-n path of single pebbles to a hub carrying
    ``2**n - n``, and a bare length-n tail hangs off the hub; canonical
    solvability, reachability of the tail end, and unit-cover solvability
    of the input all coincide on the result.
    """
    _check_dims(g, c)
    if c.has_negative:
        raise ValueError("the canonical construction needs non-negative input")
    n = g.n
    if c.size >= (1 << n):
        triv = Graph(1)
        return ReducedInstance(
            kind="canonical",
            graph=triv,
            config=Configuration((1,)),
            vertex_names=("h1",),
            vertex_roles=("H",),
            target=0,
            trivial=True,
        )
    if n == 1:
        return ReducedInstance(
            kind="canonical",
            graph=g,
            config=c,
            vertex_names=("h1",),
            vertex_roles=("H",),
            target=0,
        )

    names: list[str] = [f"v{i + 1}'" for i in range(n)]
    roles: list[str] = ["H"] * n
    grid0 = n
    for i in range(n):
        for j in range(n):
            names.append(f"u{i + 1}_{j + 1}")
            roles.append("u_ij")
    hub = len(names)
    for k in range(n + 1):
        names.append(f"w{k}")
        roles.append("w_i")

    edges: list[tuple[int, int]] = list(g.edges)
    for i in range(n):
        row = grid0 + i * n
        edges.append((i, row))
        for j in range(n - 1):
            edges.append((row + j, row + j + 1))
        edges.append((row + n - 1, hub))
    for k in range(n):
        edges.append((hub + k, hub + k + 1))

    counts = [c.counts[i] + 1 for i in range(n)]
    counts += [1] * (n * n)
    counts += [(1 << n) - n] + [0] * n

    graph = Graph(len(names), edges)
    return ReducedInstance(
        kind="canonical",
        graph=graph,
        config=Configuration(tuple(counts)),
        vertex_names=tuple(names),
        vertex_roles=tuple(roles),
        target=hub + n,
    )


def reduce_to_number_threshold(inst: X4CInstance) -> ReducedInstance:
    """Reachability-number threshold instance for ``inst``.

    Element vertices all feed one target v, set vertices attach to their
    elements, and each set vertex trails a path of three pebble-storage
    vertices.  The claim under test: the cover pebbling number of reaching
    v exceeds ``15m + 16n`` exactly when an exact cover exists.  The
    instance itself carries no pebbles; witness configurations come from
    :func:`number_witness_config`.
    """
    n, m = inst.n, inst.m
    names, roles, edges = _set_gadget(inst, 4)
    v = len(names)
    names.append("v")
    roles.append("v")
    edges += [(j, v) for j in range(4 * n)]

    graph = Graph(len(names), edges)
    return ReducedInstance(
        kind="number",
        graph=graph,
        config=Configuration.zero(graph.n),
        vertex_names=tuple(names),
        vertex_roles=tuple(roles),
        target=v,
        threshold=15 * m + 16 * n,
    )


def number_witness_config(inst: X4CInstance, cover: list[int]) -> Configuration:
    """The size ``31n + 15(m-n)`` configuration that cannot reach the target.

    31 pebbles on the path end below each covering set vertex, 15 below
    every other, nothing anywhere else.
    """
    _check_cover(inst, cover)
    n, m = inst.n, inst.m
    total_vertices = 4 * n + 4 * m + 1
    bppp0 = 4 * n + 3 * m
    counts = [0] * total_vertices
    in_cover = set(cover)
    for i in range(m):
        counts[bppp0 + i] = 31 if i in in_cover else 15
    return Configuration(tuple(counts))
