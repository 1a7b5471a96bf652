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
    each settled by the solver or by dominance.
    """

    value: int
    extremal_config: Configuration
    configs_checked: int


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

    Keeps, per demand, the configurations of the previous size that fail
    it.  A size-k configuration goes to the solver for a demand only when
    every one-pebble removal of it is in that failing set: its extensions
    are counted, and a count equal to its number of non-zero slots means
    no solvable configuration lies below it.  ``configs_checked`` and
    ``config_cap`` count all configurations of sizes 1 .. k.
    ``unit_bound`` is a proven ceiling on the value; passing it means a
    solver bug, not a larger answer.
    """
    n = g.n
    failing: list[set[tuple[int, ...]]] = [{(0,) * n} for _ in demands]
    checked = 0
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
        for j in range(len(demands)):
            below = Counter(
                f[:i] + (f[i] + 1,) + f[i + 1:] for f in failing[j] for i in range(n)
            )
            grown.append({
                c
                for c, hits in below.items()
                if hits == n - c.count(0)
                and not is_cover_solvable(
                    g, Configuration(c), demands[j], node_cap=node_cap
                ).solvable
            })
        if not any(grown):
            witness = min(set().union(*failing), key=lambda c: c[::-1])
            return NumberResult(k, Configuration(witness), checked)
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
