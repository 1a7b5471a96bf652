#!/usr/bin/env python3
"""Exercise two of the three hardness constructions end to end.

Reads an exact-cover-by-4-sets file (defaults to a built-in pair: the
three-set yes-instance and its no-cover variant) and reports, for the
cover-solvability and the number-threshold constructions, whether the
pebbling-side answer matches the exact-cover-side answer, with node counts
from the exact solver.  The canonical construction is left to the test
suite's small inputs: its instance for the built-in yes-instance has 400
vertices, and its search ran past a 3 * 10**6 node cap in about two minutes.

Example:
    python scripts/reduction_roundtrip.py --node-cap 100000000
    python scripts/reduction_roundtrip.py --x4c my_instance.txt
"""

from __future__ import annotations

import argparse
import sys
import time

from pebbling import (
    X4CInstance,
    cover_certificate_from_exact_cover,
    is_cover_solvable,
    is_reachable,
    number_witness_config,
    reduce_to_cover_solvability,
    reduce_to_number_threshold,
    verify_solution,
    x4c_solve,
)
from pebbling.formats import parse_x4c

BUILTINS = {
    "yes": X4CInstance(
        2, (frozenset({1, 2, 3, 4}), frozenset({3, 4, 5, 6}), frozenset({5, 6, 7, 8}))
    ),
    "no": X4CInstance(
        2, (frozenset({1, 2, 3, 4}), frozenset({3, 4, 5, 6}), frozenset({4, 5, 7, 8}))
    ),
}


def check_cover_reduction(inst: X4CInstance, node_cap: int) -> bool:
    cover = x4c_solve(inst)
    red = reduce_to_cover_solvability(inst)
    t0 = time.time()
    result = is_cover_solvable(red.graph, red.config, red.demand, node_cap=node_cap)
    elapsed = time.time() - t0
    ok = result.solvable == (cover is not None)
    print(
        f"  cover-solvability reduction: |G'|={red.graph.n} cover={cover} "
        f"solver={result.status} nodes={result.nodes_expanded} ({elapsed:.1f}s)"
        f" -> {'OK' if ok else 'MISMATCH'}"
    )
    if cover is not None:
        cert = cover_certificate_from_exact_cover(inst, cover)
        good = verify_solution(red.graph, red.config, red.demand, cert)
        print(f"    constructed certificate verifies: {good}")
        ok = ok and good
    return ok


def check_number_reduction(inst: X4CInstance, node_cap: int) -> bool:
    cover = x4c_solve(inst)
    red = reduce_to_number_threshold(inst)
    print(
        f"  number-threshold reduction: |G'|={red.graph.n} threshold={red.threshold}"
    )
    if cover is None:
        print("    no exact cover: witness direction not applicable")
        return True
    witness = number_witness_config(inst, cover)
    t0 = time.time()
    result = is_reachable(red.graph, witness, red.target, node_cap=node_cap)
    elapsed = time.time() - t0
    ok = not result.solvable
    print(
        f"    size-{witness.size} witness rejected: {ok} "
        f"nodes={result.nodes_expanded} ({elapsed:.1f}s)"
    )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--x4c", metavar="FILE", help="exact-cover input file")
    parser.add_argument("--node-cap", type=int, default=10**8)
    args = parser.parse_args()

    if args.x4c:
        with open(args.x4c, encoding="utf-8") as handle:
            instances = {args.x4c: parse_x4c(handle.read())}
    else:
        instances = BUILTINS

    all_ok = True
    for name, inst in instances.items():
        print(f"instance {name!r}: n={inst.n} m={inst.m}")
        all_ok &= check_cover_reduction(inst, args.node_cap)
        all_ok &= check_number_reduction(inst, args.node_cap)
    print("round trip:", "OK" if all_ok else "FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
