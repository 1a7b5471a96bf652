#!/usr/bin/env python3
"""Tabulate cover pebbling and pebbling numbers for small graph families.

Example:
    python scripts/number_table.py --max-size 5
"""

from __future__ import annotations

import argparse
import sys

from pebbling import Demand, Graph, cover_pebbling_number, pebbling_number


def families(max_size: int):
    for n in range(2, max_size + 1):
        yield f"P_{n}", Graph.path(n)
    for n in range(3, max_size + 1):
        yield f"C_{n}", Graph.cycle(n)
    for n in range(2, max_size + 1):
        yield f"K_{n}", Graph.complete(n)
    for leaves in range(2, max_size):
        yield f"K_1,{leaves}", Graph.star(leaves)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=5)
    args = parser.parse_args()

    print(f"{'graph':>7} {'n':>3} {'gamma(U)':>9} {'pi':>4}  extremal (gamma)")
    for name, g in families(args.max_size):
        gamma_res = cover_pebbling_number(g, Demand.unit(g.n))
        pi_res = pebbling_number(g)
        extremal = gamma_res.extremal_config.counts
        print(
            f"{name:>7} {g.n:>3} {gamma_res.value:>9} {pi_res.value:>4}  {extremal}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
