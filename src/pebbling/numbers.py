"""Cover pebbling and pebbling numbers by exhaustive enumeration.

All three numbers come from one threshold sweep over a list of demands: the
least k such that *every* configuration of k pebbles is solvable for every
demand.  The cover pebbling number sweeps one demand, the reachability
number one single-pebble demand, and the pebbling number the single-pebble
demands of all vertices at once, which shares the enumeration.  The set of
all-passing sizes is upward closed (adding a pebble never breaks
solvability), so the sweep runs k = 1, 2, ... and stops at the first size
with no failing configuration; the previous size is guaranteed to hold an
extremal (failing) witness.

Configurations of each size are enumerated in colexicographic order, so the
reported extremal configuration is deterministic: the colex-least failure
at size value - 1.  Each demand is settled for each configuration, first by
dominance (dropping any single pebble into a configuration of the previous
size known solvable for that demand); only dominance misses go to the exact
solver.  Each configuration is visited once per size, so solver verdicts are
not cached; the graph-only tables of the solver are built once per graph.

:func:`stacking_lower_bound` is a proven lower bound on the cover pebbling
number, not a starting point: a sweep from it would have no dominance base
for its first size and would send every configuration there to the solver.

This is desk-scale machinery: the number of compositions of k into n parts
grows fast, so expect |V| up to about 8 and values up to a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import Configuration, Demand, Graph, PebblingError
from .solver import DEFAULT_NODE_CAP, BudgetExceeded, is_cover_solvable

DEFAULT_CONFIG_CAP = 10_000_000


class ZeroDemand(PebblingError):
    """Cover pebbling numbers are undefined for the all-zero demand."""


@dataclass(frozen=True)
class NumberResult:
    """An exact pebbling-number value with its extremal witness.

    ``extremal_config`` has size ``value - 1`` and fails the defining
    property; every configuration of size ``value`` passes (by exhaustion).
    """

    value: int
    extremal_config: Configuration
    configs_checked: int


def compositions_colex(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to split ``total`` over ``parts`` slots, colex ascending.

    Colex order compares the last slot first.  The successor of a
    composition whose first non-zero slot is ``i < parts - 1`` moves one
    unit from slot ``i`` to slot ``i + 1`` and the rest of slot ``i`` back to
    slot 0; the composition with everything in the last slot is final.
    """
    if parts < 1:
        raise ValueError("need at least one part")
    last = parts - 1
    a = [0] * parts
    a[0] = total
    i = 0 if total else last  # first non-zero slot; the zero split is alone
    while True:
        yield tuple(a)
        if i == last:
            return
        x = a[i]
        a[i] = 0
        a[i + 1] += 1
        a[0] = x - 1
        i = 0 if x > 1 else i + 1


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


def _threshold(
    g: Graph,
    demands: list[Demand],
    *,
    node_cap: int,
    config_cap: int,
    unit_bound: int | None,
) -> NumberResult:
    """Least k such that every size-k configuration solves every demand.

    Keeps one dominance set per demand: the configurations of the previous
    size solvable for it.  Every demand is settled for every configuration,
    so the sets stay complete.  ``unit_bound`` is a proven ceiling on the
    value; passing it means a solver bug, not a larger answer.
    """
    n = g.n
    per_demand = range(len(demands))
    checked = 0
    prev: list[set[tuple[int, ...]]] = [set() for _ in per_demand]
    witness = (0,) * n  # no pebbles serve no non-zero demand
    k = 1
    while True:
        if unit_bound is not None and k > unit_bound:
            raise PebblingError(
                f"sweep passed the proven upper bound {unit_bound}; solver bug"
            )
        cur: list[set[tuple[int, ...]]] = [set() for _ in per_demand]
        first_fail: tuple[int, ...] | None = None
        for counts in compositions_colex(k, n):
            checked += 1
            if checked > config_cap:
                raise BudgetExceeded(
                    f"enumerated more than {config_cap} configurations"
                )
            good = True
            for j in per_demand:
                base = prev[j]
                for i, x in enumerate(counts):
                    if x and counts[:i] + (x - 1,) + counts[i + 1:] in base:
                        break
                else:
                    if not is_cover_solvable(
                        g, Configuration(counts), demands[j], node_cap=node_cap
                    ).solvable:
                        good = False
                        continue
                cur[j].add(counts)
            if not good and first_fail is None:
                first_fail = counts
        if first_fail is None:
            return NumberResult(k, Configuration(witness), checked)
        witness = first_fail
        prev = cur
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
