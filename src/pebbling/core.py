"""Graph pebbling data model: graphs, configurations, demands, move lists,
and the exact dyadic potential used to certify unsolvability.

A pebbling move takes two pebbles off a vertex and puts one pebble on an
adjacent vertex.  A move list records how many moves cross each directed
edge; it *solves* a configuration ``c`` against a demand ``d`` when every
vertex ends with at least its demanded pebbles:

    c(k) + (moves into k) - 2 * (moves out of k)  >=  d(k)    for all k.

Only these final tallies matter, which is what lets the solver in
:mod:`pebbling.solver` search over move lists instead of move sequences.
Intermediate counts may go negative when working with signed ("extended")
configurations; for non-negative inputs the two views coincide.

The potential of a vertex ``v``,

    sum over u of (c(u) - d(u)) * 2 ** -dist(u, v),

never increases under a pebbling move, so a negative potential anywhere
certifies that no sequence of moves can meet the demand.  One kernel,
:func:`potentials`, computes it: integer numerators over ``2**diam``, one
dot product per row of a weight table, ``2**(diam - dist)`` per vertex
pair, that :func:`weights` builds from a distance table whose entries are
at most ``diam``.  :func:`gamma` turns one numerator into a
:class:`fractions.Fraction`, :func:`gamma_witness` names the first negative
one, and the solver builds one table per call on its folded core, for the
root check and for every move's change (the weight row of its head minus
twice that of its tail).  Floating point is never used because the
hardness constructions distinguish values that differ by less than machine
epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence


class PebblingError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceeded(PebblingError):
    """A search or sweep hit its configured cap before reaching a verdict."""


class DimensionMismatch(PebblingError):
    """Configuration, demand, or move list indexes a different vertex set."""


class EdgeViolation(PebblingError):
    """A move list puts moves on a vertex pair that is not an edge."""


class Graph:
    """Undirected connected simple graph on vertices ``0 .. n-1``.

    Vertices are identified by index; external names are resolved to indices
    at the I/O boundary.  All-pairs distances and the diameter are computed
    once at construction, by one level-by-level BFS per vertex over the
    adjacency lists, which come out ascending because the edges are sorted;
    distance queries are table lookups.  Instances are immutable after
    construction, hold no cache, and are safe to share across threads.
    """

    __slots__ = ("n", "edges", "diameter", "_adj", "_dist")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        undirected: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            undirected.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(undirected))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:  # sorted edges leave each list ascending
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))
        self._dist = tuple(map(self._bfs, range(n)))
        if -1 in self._dist[0]:
            raise ValueError("graph is not connected")
        self.diameter = max(map(max, self._dist))

    def _bfs(self, source: int) -> tuple[int, ...]:
        """Distances from ``source``, one BFS level at a time; -1 where
        unreachable."""
        adj = self._adj
        dist = [-1] * self.n
        dist[source] = 0
        layer = [source]
        d = 0
        while layer:
            d += 1
            nxt = []
            for u in layer:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            layer = nxt
        return tuple(dist)

    # -- queries ----------------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def distance(self, u: int, v: int) -> int:
        return self._dist[u][v]

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Subgraph on ``keep``, plus the old-index -> new-index map.

        Raises ValueError if the result would be empty or disconnected.
        """
        kept = sorted(set(keep))
        if not kept:
            raise ValueError("cannot induce an empty subgraph")
        remap = {old: new for new, old in enumerate(kept)}
        sub_edges = [
            (remap[u], remap[v]) for u, v in self.edges if u in remap and v in remap
        ]
        return Graph(len(kept), sub_edges), remap

    # -- constructors for common families ---------------------------------

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        """Star with the center at index 0 and ``leaves`` leaves."""
        return cls(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def _as_counts(values: Iterable[int]) -> tuple[int, ...]:
    counts = tuple(int(x) for x in values)
    if not counts:
        raise ValueError("counts must cover at least one vertex")
    return counts


@dataclass(frozen=True)
class Configuration:
    """Pebble counts per vertex.

    Counts are non-negative unless ``extended=True``, which opts in to the
    signed model where only the final tallies of a move list are
    constrained.
    """

    counts: tuple[int, ...]
    extended: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _as_counts(self.counts))
        if not self.extended and any(x < 0 for x in self.counts):
            raise ValueError("negative counts require extended=True")

    @property
    def size(self) -> int:
        return sum(self.counts)

    @property
    def has_negative(self) -> bool:
        return any(x < 0 for x in self.counts)

    @classmethod
    def zero(cls, n: int) -> "Configuration":
        return cls((0,) * n)


@dataclass(frozen=True)
class Demand:
    """Non-negative pebble requirement per vertex, met simultaneously."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _as_counts(self.counts))
        if any(x < 0 for x in self.counts):
            raise ValueError("demands are non-negative")

    @property
    def size(self) -> int:
        return sum(self.counts)

    @classmethod
    def unit(cls, n: int) -> "Demand":
        """One pebble demanded on every vertex."""
        return cls((1,) * n)

    @classmethod
    def reach(cls, n: int, v: int) -> "Demand":
        """One pebble demanded on ``v`` only."""
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        return cls(tuple(1 if i == v else 0 for i in range(n)))


class MoveList:
    """Non-negative move counts per ordered vertex pair.

    Zero counts are dropped and entries are kept sorted by (from, to), so
    equal move lists compare and hash equal.  Whether the pairs are edges of
    a particular graph is checked by the operations that take a graph.
    """

    __slots__ = ("moves",)

    def __init__(
        self,
        moves: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]] = (),
    ):
        merged: dict[tuple[int, int], int] = {}
        items: Iterable[tuple[int, int, int]]
        if isinstance(moves, Mapping):
            items = ((u, w, q) for (u, w), q in moves.items())
        else:
            items = moves
        for u, w, q in items:
            if q < 0:
                raise ValueError(f"negative move count on ({u}, {w})")
            if q:
                merged[u, w] = merged.get((u, w), 0) + q
        object.__setattr__(
            self, "moves", tuple(sorted((u, w, q) for (u, w), q in merged.items()))
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MoveList is immutable")

    def items(self) -> Iterator[tuple[int, int, int]]:
        return iter(self.moves)

    def __bool__(self) -> bool:
        return bool(self.moves)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MoveList) and self.moves == other.moves

    def __hash__(self) -> int:
        return hash(self.moves)

    def __repr__(self) -> str:
        return f"MoveList({list(self.moves)})"


# -- operations -------------------------------------------------------------


def _check_dims(g: Graph, *valued: Configuration | Demand) -> None:
    for x in valued:
        if len(x.counts) != g.n:
            raise DimensionMismatch(
                f"expected counts for {g.n} vertices, got {len(x.counts)}"
            )


def _net_counts(g: Graph, c: Configuration, ml: MoveList) -> list[int]:
    """Final tallies after executing ``ml`` in one shot (may be negative)."""
    edge_set = set(g.edges)
    out = list(c.counts)
    for u, w, q in ml.items():
        if not (0 <= u < g.n and 0 <= w < g.n):
            raise DimensionMismatch(f"move ({u}, {w}) indexes outside the graph")
        if (min(u, w), max(u, w)) not in edge_set:
            raise EdgeViolation(f"({u}, {w}) is not an edge")
        out[u] -= 2 * q
        out[w] += q
    return out


def verify_solution(g: Graph, c: Configuration, d: Demand, ml: MoveList) -> bool:
    """Check the per-vertex tallies of ``ml`` against the demand.

    True iff ``c(k) + in(k) - 2*out(k) >= d(k)`` for every vertex; this is
    the whole certificate check, so it runs in time linear in the move list
    plus the vertex count.
    """
    _check_dims(g, c, d)
    final = _net_counts(g, c, ml)
    return all(final[k] >= d.counts[k] for k in range(g.n))


def apply_moves(g: Graph, c: Configuration, ml: MoveList) -> Configuration:
    """Configuration left after executing every move of ``ml`` at once.

    The result may be negative on some vertices and is flagged extended in
    that case.
    """
    _check_dims(g, c)
    final = _net_counts(g, c, ml)
    return Configuration(
        tuple(final), extended=c.extended or any(x < 0 for x in final)
    )


def weights(dist: Iterable[Sequence[int]], diam: int) -> list[list[int]]:
    """The potential weights ``2**(diam - d)`` of a distance table.

    Row ``z`` of ``dist`` holds the distances to ``z``, each at most
    ``diam``; row ``z`` of the result weighs each vertex's balance in the
    potential of ``z``, times ``2**diam``.
    """
    return [[1 << (diam - k) for k in row] for row in dist]


def potentials(base: Sequence[int], weight: Iterable[Sequence[int]]) -> list[int]:
    """Potential numerators, one per row of ``weight`` (see :func:`weights`).

    Entry ``z`` is ``sum(base[x] * weight[z][x])``, the potential of ``z``
    under the balances ``base`` (pebbles minus demand) times ``2**diam``.
    """
    return [sum(map(mul, base, row)) for row in weight]


def _balances(g: Graph, c: Configuration, d: Demand) -> list[int]:
    _check_dims(g, c, d)
    return [a - b for a, b in zip(c.counts, d.counts)]


def gamma(g: Graph, c: Configuration, d: Demand, v: int) -> Fraction:
    """Exact potential of ``v``: sum of (c-d)(u) * 2**-dist(u, v)."""
    base = _balances(g, c, d)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    (num,) = potentials(base, weights([g._dist[v]], g.diameter))
    return Fraction(num, 1 << g.diameter)


def gamma_witness(g: Graph, c: Configuration, d: Demand) -> int | None:
    """Lowest-index vertex with negative potential, or None.

    A hit proves the pair (c, d) unsolvable; no hit proves nothing.
    """
    pot = potentials(_balances(g, c, d), weights(g._dist, g.diameter))
    return next((v for v, x in enumerate(pot) if x < 0), None)
