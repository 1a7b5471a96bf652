#!/usr/bin/env python3
"""Randomized cross-validation of the solving engines.

Samples connected graphs with random configurations and demands, then checks
that the move-list solver and the breadth-first oracle return the same
verdict, that every certificate verifies with an acyclic support, that a
negative potential is only ever reported for oracle-unsolvable instances,
that the solver names the first vertex of negative potential as its
witness exactly when there is one, and that every tree folds to one
vertex, so the solver decides it with no search.  Every graph has three or
more vertices.  One case in eight is a bare random spanning tree; every
other graph gets at least one chord over it, so it carries a cycle and
keeps a 2-core for the search to run on.  The summary counts the trees and
the cases that reached the search.

Example:
    python scripts/agreement_sweep.py --cases 20000 --max-vertices 6 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from graphlib import CycleError, TopologicalSorter

from pebbling import (
    Configuration,
    Demand,
    Graph,
    gamma_witness,
    is_cover_solvable,
    oracle_solvable,
    verify_solution,
)

TREE_SHARE = 8  # one case in this many keeps its spanning tree, with no chord


def random_instance(rng: random.Random, max_n: int, max_pebbles: int, max_demand: int):
    n = rng.randint(3, max_n)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    if rng.randrange(TREE_SHARE):
        chords = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
        edges.update(rng.sample(chords, rng.randint(1, min(n, len(chords)))))
    g = Graph(n, edges)
    counts = [0] * n
    for _ in range(rng.randint(0, max_pebbles)):
        counts[rng.randrange(n)] += 1
    demand = [0] * n
    for _ in range(rng.randint(0, max_demand)):
        demand[rng.randrange(n)] += 1
    return g, Configuration(tuple(counts)), Demand(tuple(demand))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--max-vertices", type=int, default=6)
    parser.add_argument("--max-pebbles", type=int, default=8)
    parser.add_argument("--max-demand", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.max_vertices < 3:
        parser.error("--max-vertices must be at least 3")

    rng = random.Random(args.seed)
    t0 = time.time()
    stats = {"solvable": 0, "unsolvable": 0, "witnessed": 0, "trees": 0, "searched": 0}
    for case in range(args.cases):
        g, c, d = random_instance(rng, args.max_vertices, args.max_pebbles, args.max_demand)
        result = is_cover_solvable(g, c, d)
        reference = oracle_solvable(g, c, d)
        if result.solvable != reference:
            print(f"DISAGREEMENT at case {case}: {g} {c.counts} {d.counts}")
            return 1
        if result.solvable:
            stats["solvable"] += 1
            cert = result.certificate
            support = TopologicalSorter()
            for u, w, _ in cert.items():
                support.add(w, u)
            try:
                # raises CycleError exactly when the support has a cycle
                support.prepare()
            except CycleError:
                print(f"CYCLIC CERTIFICATE at case {case}")
                return 1
            if not verify_solution(g, c, d, cert):
                print(f"BAD CERTIFICATE at case {case}")
                return 1
        else:
            stats["unsolvable"] += 1
        witness = gamma_witness(g, c, d)
        if result.witness != witness:
            print(f"WITNESS MISMATCH at case {case}: {result.witness} != {witness}")
            return 1
        if witness is not None:
            stats["witnessed"] += 1
            if reference:
                print(f"UNSOUND POTENTIAL at case {case}")
                return 1
        if result.nodes_expanded:
            stats["searched"] += 1
        if len(g.edges) == g.n - 1:
            stats["trees"] += 1
            if result.nodes_expanded:
                print(f"TREE SEARCHED at case {case}")
                return 1
    elapsed = time.time() - t0
    print(
        f"{args.cases} cases in {elapsed:.1f}s | solvable={stats['solvable']} "
        f"unsolvable={stats['unsolvable']} (witnessed={stats['witnessed']}) "
        f"trees={stats['trees']} searched={stats['searched']} | all engines agree"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
