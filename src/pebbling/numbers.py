"""Cover pebbling and pebbling numbers by exhaustive enumeration.

The cover pebbling number of a demand is the least k such that *every*
configuration of k pebbles is solvable for it; the pebbling number is the
same with "solvable" replaced by "every vertex reachable".  Both sets of
all-solvable sizes are upward closed (adding a pebble never breaks
solvability), so a sweep over k = 1, 2, ... stops at the first size with no
failing configuration, and the previous size is guaranteed to hold an
extremal (failing) witness.

Configurations of each size are enumerated in colexicographic order, so the
reported extremal configuration is deterministic: the colex-least failure
at size value - 1.  Solvability of a configuration is first attempted by
dominance (dropping any single pebble into a known-solvable configuration
of the previous size); only dominance misses go to the exact solver.  Each
configuration is visited once per size, so solver verdicts are not cached;
the graph-only tables of the solver are built once per graph.

This is desk-scale machinery: the number of compositions of k into n parts
grows fast, so expect |V| up to about 8 and values up to a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

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

    Delivering d(u) pebbles from v costs d(u) * 2**dist(u, v), so a stack
    one short of the maximum cannot serve the demand from the worst vertex.
    That makes this a warm start for the enumeration; it is asserted against
    the enumerated value in tests rather than assumed.
    """
    if len(d.counts) != g.n:
        raise ValueError("demand covers a different vertex set")
    return max(
        sum(d.counts[u] << g.distance(u, v) for u in range(g.n))
        for v in range(g.n)
    )


def _sweep(
    g: Graph,
    solvable_for: Callable[[tuple[int, ...], int], bool],
    *,
    start: int,
    config_cap: int,
    unit_bound: int | None,
) -> NumberResult:
    """Shared size sweep: find the least k with no failing configuration.

    ``solvable_for(counts, size)`` decides one configuration; sizes arrive
    in ascending runs, so it can settle a configuration by dominance over
    the previous size.  ``start`` > 1 trusts the caller that
    sizes below start - 1 all fail; if start - 1 unexpectedly has no failing
    configuration the sweep restarts from 1, preserving exactness.
    """
    n = g.n
    checked = 0
    prev_fail: tuple[int, ...] | None = (0,) * n if start == 1 else None
    k = start if start > 1 else 1
    if k > 1:
        k -= 1  # re-scan the size below the warm start to find its witness
    while True:
        if unit_bound is not None and k > unit_bound:
            raise PebblingError(
                f"sweep passed the proven upper bound {unit_bound}; solver bug"
            )
        first_fail: tuple[int, ...] | None = None
        for counts in compositions_colex(k, n):
            checked += 1
            if checked > config_cap:
                raise BudgetExceeded(
                    f"enumerated more than {config_cap} configurations"
                )
            if not solvable_for(counts, k) and first_fail is None:
                first_fail = counts
        if first_fail is None:
            if prev_fail is None:
                # warm start overshot: fall back to the faithful sweep
                return _sweep(
                    g,
                    solvable_for,
                    start=1,
                    config_cap=config_cap,
                    unit_bound=unit_bound,
                )
            return NumberResult(k, Configuration(prev_fail), checked)
        prev_fail = first_fail
        k += 1


def cover_pebbling_number(
    g: Graph,
    d: Demand,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    config_cap: int = DEFAULT_CONFIG_CAP,
    warm_start: bool = False,
) -> NumberResult:
    """Exact cover pebbling number of ``d`` on ``g``.

    Sweeps sizes from 1 (the faithful default) or from the stacking bound
    when ``warm_start`` is set.  For the unit demand the sweep is guarded by
    the proven ``2**n - 1`` ceiling: passing it would mean a solver bug, not
    a larger answer.
    """
    if len(d.counts) != g.n:
        raise ValueError("demand covers a different vertex set")
    if d.size == 0:
        raise ZeroDemand("demand must request at least one pebble")
    unit = d.counts == (1,) * g.n
    solvable_prev: set[tuple[int, ...]] = set()
    solvable_cur: set[tuple[int, ...]] = set()
    cur_size = -1

    def solvable_for(counts: tuple[int, ...], size: int) -> bool:
        nonlocal solvable_prev, solvable_cur, cur_size
        if size != cur_size:
            # moved to a new size: last size's successes become the
            # dominance base (only consecutive sizes matter)
            solvable_prev = solvable_cur if size == cur_size + 1 else set()
            solvable_cur = set()
            cur_size = size
        ok = None
        for i, x in enumerate(counts):
            if x and counts[:i] + (x - 1,) + counts[i + 1:] in solvable_prev:
                ok = True
                break
        if ok is None:
            ok = is_cover_solvable(
                g, Configuration(counts), d, node_cap=node_cap
            ).solvable
        if ok:
            solvable_cur.add(counts)
        return ok

    start = stacking_lower_bound(g, d) if warm_start else 1
    return _sweep(
        g,
        solvable_for,
        start=max(1, start),
        config_cap=config_cap,
        unit_bound=(1 << g.n) - 1 if unit else None,
    )


def reachability_number(
    g: Graph,
    target: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    config_cap: int = DEFAULT_CONFIG_CAP,
    warm_start: bool = False,
) -> NumberResult:
    """Cover pebbling number of the single-pebble demand on ``target``."""
    return cover_pebbling_number(
        g,
        Demand.reach(g.n, target),
        node_cap=node_cap,
        config_cap=config_cap,
        warm_start=warm_start,
    )


def pebbling_number(
    g: Graph,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> NumberResult:
    """Least k such that every size-k configuration reaches every vertex.

    Equivalent to the max over targets of the per-target threshold, but it
    is computed as one sweep testing all targets per configuration, which
    shares the enumeration.
    """
    n = g.n
    demands = [Demand.reach(n, v) for v in range(n)]
    solvable_prev: list[set[tuple[int, ...]]] = [set() for _ in range(n)]
    solvable_cur: list[set[tuple[int, ...]]] = [set() for _ in range(n)]
    cur_size = -1

    def canonical_for(counts: tuple[int, ...], size: int) -> bool:
        nonlocal solvable_prev, solvable_cur, cur_size
        if size != cur_size:
            solvable_prev = (
                solvable_cur if size == cur_size + 1 else [set() for _ in range(n)]
            )
            solvable_cur = [set() for _ in range(n)]
            cur_size = size
        good = True
        for v in range(n):
            ok = None
            prev = solvable_prev[v]
            for i, x in enumerate(counts):
                if x and counts[:i] + (x - 1,) + counts[i + 1:] in prev:
                    ok = True
                    break
            if ok is None:
                ok = is_cover_solvable(
                    g, Configuration(counts), demands[v], node_cap=node_cap
                ).solvable
            if ok:
                solvable_cur[v].add(counts)
            else:
                good = False
        return good

    return _sweep(
        g, canonical_for, start=1, config_cap=config_cap, unit_bound=None
    )
