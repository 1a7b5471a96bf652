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
size that fail it, starting from the empty configuration.  Each
configuration c of the next size is built at most once, as f + e_i from f =
c - e_top, top being c's last non-empty vertex: only the extensions of a
failure f at vertices top(f) and up are built.  That loses no failure,
because failing sets are closed downwards (a configuration that contains a
solvable one is solvable): when c fails, so does f.  Every configuration of
that size not built has a solvable f, so it is solvable by dominance.  The
reported extremal configuration is the colex-least failure at size value -
1, over the failing sets of every demand, and ``configs_checked`` counts
every configuration of sizes 1 .. value, all of them settled, built or not.

Each built configuration is decided by one move, with no search.  A
configuration c solves a demand d exactly when c >= d or some one-move
successor c - 2*e_u + e_w (c_u >= 2, uw an edge) solves d: if c does not
hold d, a solution starts with some move and the rest of it solves d from
that move's successor, and a solution from a successor extends back by its
move.  A successor has one pebble fewer, and the failing set of the
previous size is complete, so c fails exactly when it does not hold d and
every successor is in that set.  This is the breadth-first oracle's
recurrence, taken one size at a time.

The sweep packs each configuration into one Python int: vertex ``i``'s
count is the ``w``-bit field at bit ``w * i``, with ``w =
max(config_cap, largest demand count).bit_length() + 2``.  A size-k
configuration is built only after the cap has been charged at least ``n``
per size 1 .. k, so every count is at most ``k <= config_cap / n`` and
every field stays below its top bit, the guard.  Adding a pebble to ``i``
adds ``1 << (w * i)``, and a move from ``u`` to ``v`` adds ``one[v] - 2 *
one[u]``.  With every guard bit set, subtracting a packed vector borrows
within each field and never across one, and the guard of field ``i``
survives exactly when the count there is at least the subtrahend's: that
tests ``c >= d`` and finds the fields holding two pebbles or more.  The
last vertex is the most significant field, so packed ints compare as their
reversed count tuples: integer order is colex order, and the colex-least
witness is the least int.

:func:`stacking_lower_bound` is a proven lower bound on the cover pebbling
number, not a starting point: a sweep from it would have no failing set of
the size below its first size to decide that size by.

This is desk-scale machinery: the failing sets grow with the number of
compositions of k into n parts, so expect |V| up to about 8 and values up to
a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import BudgetExceeded, Configuration, Demand, Graph, PebblingError, _check_dims

DEFAULT_CONFIG_CAP = 10_000_000


class ZeroDemand(PebblingError):
    """Cover pebbling numbers are undefined for the all-zero demand."""


@dataclass(frozen=True)
class NumberResult:
    """An exact pebbling-number value with its extremal witness.

    ``extremal_config`` has size ``value - 1`` and fails the defining
    property; every configuration of size ``value`` passes.
    ``configs_checked`` counts the configurations of sizes 1 .. ``value``,
    each settled by dominance or by one move.
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
    _check_dims(g, d)
    return max(
        sum(d.counts[u] << g.distance(u, v) for u in range(g.n))
        for v in range(g.n)
    )


def _threshold(
    g: Graph,
    demands: list[Demand],
    *,
    config_cap: int,
    unit_bound: int | None,
) -> NumberResult:
    """Least k such that every size-k configuration solves every demand.

    Keeps, per demand, the configurations of the previous size that fail
    it, packed as in the module docstring.  Each failure ``f`` is extended
    by one pebble at every field from its top non-empty one up, so a size-k
    configuration is built at most once, from the one with a pebble fewer
    at its own top field, and it fails exactly when it does not hold the
    demand and each of its one-move successors is in that failing set.
    ``configs_checked`` counts all configurations of sizes 1 .. k;
    ``config_cap`` bounds the ones built: ``n`` per failing configuration
    is charged before a size is built, an upper bound on what that size
    builds.  ``unit_bound`` is a proven ceiling on the value; passing it
    means a bug in the sweep, not a larger answer.
    """
    n = g.n
    w = max(config_cap, *(max(d.counts) for d in demands)).bit_length() + 2
    one = [1 << (w * i) for i in range(n)]
    ones = sum(one)
    guard = ones << (w - 1)
    twos = 2 * ones  # 2 in every field
    # per vertex u: u's guard bit and the steps one[v] - 2 * one[u] of its moves
    moves = [
        (b << (w - 1), [one[v] - 2 * b for v in g.neighbors(u)]) for u, b in enumerate(one)
    ]
    wants = [sum(x * b for x, b in zip(d.counts, one)) for d in demands]
    failing: list[set[int]] = [{0} for _ in demands]
    checked = built = 0
    k = 1
    while True:
        if unit_bound is not None and k > unit_bound:
            raise PebblingError(
                f"sweep passed the proven upper bound {unit_bound}; bug in the sweep"
            )
        checked += comb(k + n - 1, n - 1)
        grown: list[set[int]] = []
        for want, fail in zip(wants, failing):
            built += n * len(fail)
            if built > config_cap:
                raise BudgetExceeded(f"sweep builds more than {config_cap} configurations")
            grew: set[int] = set()
            for f in fail:
                # fields from f's top one up; the guard bit is never set, so
                # f.bit_length() // w is that field, and 0 for f == 0
                for b in one[f.bit_length() // w:]:
                    c = f + b
                    high = c | guard
                    if (high - want) & guard == guard:
                        continue
                    two = (high - twos) & guard  # guard bits of the fields holding 2+
                    for bit, steps in moves:
                        if two & bit:
                            for step in steps:
                                if c + step not in fail:
                                    break
                            else:
                                continue
                            break
                    else:
                        grew.add(c)
            grown.append(grew)
        if not any(grown):
            witness = min(set().union(*failing))
            counts = tuple(witness >> (w * i) & ((1 << w) - 1) for i in range(n))
            return NumberResult(k, Configuration(counts), checked)
        failing = grown
        k += 1


def cover_pebbling_number(
    g: Graph,
    d: Demand,
    *,
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> NumberResult:
    """Exact cover pebbling number of ``d`` on ``g``.

    For the unit demand the sweep is guarded by the proven ``2**n - 1``
    ceiling.
    """
    _check_dims(g, d)
    if d.size == 0:
        raise ZeroDemand("demand must request at least one pebble")
    unit = d.counts == (1,) * g.n
    return _threshold(
        g,
        [d],
        config_cap=config_cap,
        unit_bound=(1 << g.n) - 1 if unit else None,
    )


def pebbling_number(
    g: Graph,
    *,
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> NumberResult:
    """Least k such that every size-k configuration reaches every vertex.

    The max over targets of the reachability number, computed as one sweep
    over all targets so that the enumeration is shared.
    """
    return _threshold(
        g,
        [Demand.reach(g.n, v) for v in range(g.n)],
        config_cap=config_cap,
        unit_bound=None,
    )
