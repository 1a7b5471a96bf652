"""Cover pebbling and pebbling numbers by an exact threshold sweep.

All three numbers come from one threshold sweep over a list of demands: the
least k such that *every* configuration of k pebbles is solvable for every
demand.  The cover pebbling number sweeps one demand, the reachability
number one single-pebble demand, and the pebbling number the single-pebble
demands of all vertices at once.  The set of all-passing sizes is upward
closed (adding a pebble never breaks solvability), so the sweep runs
k = 1, 2, ... and stops at the first size with no failing configuration;
the previous size is guaranteed to hold an extremal (failing) witness.

The sweep walks the failure frontier instead of enumerating every
configuration.  For each demand it keeps the configurations of the previous
size that fail it, starting from the empty configuration.  A configuration
of the next size can fail only if every one-pebble removal of it fails too
(otherwise it contains a solvable configuration, and solvability is upward
closed), so only the one-pebble extensions of failures all of whose
down-neighbours fail are built and sent to the exact solver; every other
configuration of that size is solvable by dominance and is never built.
Because the failing set of each size is complete, these are exactly the
configurations that a full enumeration with a dominance test over the
previous size would send to the solver.  The reported extremal
configuration is the colex-least failure at size value - 1, and
``configs_checked`` counts every configuration of sizes 1 .. value, all of
them settled, built or not.

The sweep is quotiented by graph automorphisms.  For an automorphism p of
the graph, a configuration c fails a demand d exactly when c∘p fails d∘p,
so the candidates of one size split into orbits under the automorphisms
that fix the demand, and one solver call per orbit settles all of it; the
failing sets stay whole, so the extension count above is unchanged.  For
the pebbling number only one target per vertex orbit of the automorphism
group is swept, and the witness is taken over the failing sets of every
target, rebuilt from the swept ones.  :func:`automorphism_generators` finds
the automorphisms as a generating set, never the whole group, by a
backtracking search over vertices refined by colour and distances.

:func:`stacking_lower_bound` is a proven lower bound on the cover pebbling
number, not a starting point: a sweep from it would have no failing set for
its first size and would send every configuration there to the solver.

This is desk-scale machinery: the failing sets grow with the number of
compositions of k into n parts, so expect |V| up to about 8 and values up to
a few dozen.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import itemgetter
from typing import Sequence

from .core import Configuration, Demand, Graph, PebblingError
from .solver import DEFAULT_NODE_CAP, BudgetExceeded, is_cover_solvable

DEFAULT_CONFIG_CAP = 10_000_000


class ZeroDemand(PebblingError):
    """Cover pebbling numbers are undefined for the all-zero demand."""


@dataclass(frozen=True)
class NumberResult:
    """An exact pebbling-number value with its extremal witness.

    ``extremal_config`` has size ``value - 1`` and fails the defining
    property; every configuration of size ``value`` passes.
    ``configs_checked`` counts the configurations of sizes 1 .. ``value``,
    each settled by the solver, by dominance or by symmetry;
    ``solver_calls`` counts the exact searches among them.
    """

    value: int
    extremal_config: Configuration
    configs_checked: int
    solver_calls: int


def stacking_lower_bound(g: Graph, d: Demand) -> int:
    """Max over v of the cost of serving the whole demand from a stack on v.

    A proven lower bound on the cover pebbling number of ``d``: the weight
    sum(p(x) * 2**dist(x, v)) never increases under a move, since a move
    takes 2 * 2**dist(u, v) off u and adds at most 2**(dist(u, v) + 1) to
    its neighbour.  A stack of k pebbles on v weighs k, and any
    configuration containing ``d`` weighs at least sum(d(u) * 2**dist(u, v)),
    so one pebble fewer than that cannot serve ``d`` from v.  Sjöstrand's
    cover pebbling theorem says the bound is the value for strictly
    positive demands; the tests check that against the sweep.
    """
    if len(d.counts) != g.n:
        raise ValueError("demand covers a different vertex set")
    return max(
        sum(d.counts[u] << g.distance(u, v) for u in range(g.n))
        for v in range(g.n)
    )


def automorphism_generators(g: Graph, colour: Sequence) -> list[tuple[int, ...]]:
    """Generators of the automorphisms of ``g`` that keep ``colour``.

    A permutation ``p`` sends vertex ``v`` to ``p[v]``.  The base is
    0, 1, ..., n - 1, worked from the last level up: at level i every
    generator found so far fixes 0 .. i - 1, and for each image of i outside
    their orbit of i a backtracking search looks for one automorphism that
    fixes 0 .. i - 1 and sends i there.  So the result is a strong generating
    set with at most one permutation per (level, image), and the group order
    is the product over levels of the orbit of i under the generators that
    fix 0 .. i - 1.  A vertex may only go to one of the same colour and
    sorted distance row, and a partial map must keep every distance between
    mapped vertices, so a complete map is an automorphism.
    """
    n, dist = g.n, g._dist
    key = [(colour[v], *sorted(dist[v])) for v in range(n)]
    groups: dict[tuple, list[int]] = {}
    for v in range(n):
        groups.setdefault(key[v], []).append(v)
    like = [groups[k] for k in key]
    gens: list[tuple[int, ...]] = []
    for i in reversed(range(n)):
        orbit = {i}  # the generators of deeper levels fix i
        for w in like[i]:
            if w > i and w not in orbit:
                p = _sending(dist, like, i, w)
                if p is not None:
                    gens.append(p)
                    orbit = _closure(orbit, [q.__getitem__ for q in gens])
    return gens


def _sending(dist, like, i: int, w: int) -> tuple[int, ...] | None:
    """An automorphism that fixes 0 .. i - 1 and sends i to w, or None.

    Each later vertex tries itself first, which finds the transpositions
    of a complete graph without a scan.
    """
    image, used, options = list(range(i)), set(range(i)), [iter([w])]
    while options:
        v = len(image)
        u = next((u for u in options[-1] if u not in used and all(
            dist[v][x] == dist[u][image[x]] for x in range(v))), None)
        if u is None:
            options.pop()
            if options:
                used.discard(image.pop())
        elif v + 1 == len(dist):
            return (*image, u)
        else:
            image.append(u)
            used.add(u)
            options.append(iter([v + 1, *like[v + 1]]))
    return None


def _closure(xs, maps) -> set:
    """Everything reached from ``xs`` by the maps, ``xs`` included."""
    seen, todo = set(xs), list(xs)
    while todo:
        y = todo.pop()
        for f in maps:
            z = f(y)
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return seen


def _movers(g: Graph, colour: Sequence) -> list:
    """c -> c∘p for each generator p: a configuration carried by p."""
    return [itemgetter(*p) for p in automorphism_generators(g, colour)]


def _threshold(
    g: Graph,
    demands: list[Demand],
    *,
    node_cap: int,
    config_cap: int,
    unit_bound: int | None,
) -> NumberResult:
    """Least k such that every size-k configuration solves every demand.

    Every automorphism that keeps the sum of the demands must permute the
    list, as it does for one demand and for the single-pebble demands of
    all vertices.  One demand per orbit of the list is swept, keeping the
    configurations of the previous size that fail it.  A size-k
    configuration is a candidate only when every one-pebble removal of it
    is in that failing set: its extensions are counted, and a count equal
    to its number of non-zero slots means no solvable configuration lies
    below it.  The candidates split into orbits under the automorphisms
    that fix the demand, and the solver decides one member of each.
    ``configs_checked`` and ``config_cap`` count all configurations of
    sizes 1 .. k.  ``unit_bound`` is a proven ceiling on the value; passing
    it means a solver bug, not a larger answer.
    """
    n = g.n
    whole = _movers(g, [sum(col) for col in zip(*(d.counts for d in demands))])
    sweeps, seen = [], set()
    for d in demands:
        if d.counts not in seen:
            seen |= _closure([d.counts], whole)
            sweeps.append((d, _movers(g, d.counts)))
    failing: list[set[tuple[int, ...]]] = [{(0,) * n} for _ in sweeps]
    checked = calls = 0
    k = 1
    while True:
        if unit_bound is not None and k > unit_bound:
            raise PebblingError(
                f"sweep passed the proven upper bound {unit_bound}; solver bug"
            )
        checked += comb(k + n - 1, n - 1)
        if checked > config_cap:
            raise BudgetExceeded(f"sweep covers more than {config_cap} configurations")
        grown: list[set[tuple[int, ...]]] = []
        for (d, stab), fail in zip(sweeps, failing):
            below = Counter(f[:i] + (f[i] + 1,) + f[i + 1:] for f in fail for i in range(n))
            settled: set[tuple[int, ...]] = set()
            grown.append(set())
            for c, hits in below.items():
                if hits == n - c.count(0) and c not in settled:
                    orbit = _closure([c], stab)
                    settled |= orbit
                    calls += 1
                    if not is_cover_solvable(g, Configuration(c), d, node_cap=node_cap).solvable:
                        grown[-1] |= orbit
        if not any(grown):
            # the failures of every listed demand: the swept ones carried
            # by the automorphisms that keep the list
            witness = min(_closure(set().union(*failing), whole), key=lambda c: c[::-1])
            return NumberResult(k, Configuration(witness), checked, calls)
        failing = grown
        k += 1


def cover_pebbling_number(
    g: Graph,
    d: Demand,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> NumberResult:
    """Exact cover pebbling number of ``d`` on ``g``.

    For the unit demand the sweep is guarded by the proven ``2**n - 1``
    ceiling.
    """
    if len(d.counts) != g.n:
        raise ValueError("demand covers a different vertex set")
    if d.size == 0:
        raise ZeroDemand("demand must request at least one pebble")
    unit = d.counts == (1,) * g.n
    return _threshold(
        g,
        [d],
        node_cap=node_cap,
        config_cap=config_cap,
        unit_bound=(1 << g.n) - 1 if unit else None,
    )


def reachability_number(
    g: Graph,
    target: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> NumberResult:
    """Cover pebbling number of the single-pebble demand on ``target``."""
    return cover_pebbling_number(
        g, Demand.reach(g.n, target), node_cap=node_cap, config_cap=config_cap
    )


def pebbling_number(
    g: Graph,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> NumberResult:
    """Least k such that every size-k configuration reaches every vertex.

    The max over targets of the reachability number, computed as one sweep
    over all targets so that the enumeration is shared.
    """
    return _threshold(
        g,
        [Demand.reach(g.n, v) for v in range(g.n)],
        node_cap=node_cap,
        config_cap=config_cap,
        unit_bound=None,
    )
