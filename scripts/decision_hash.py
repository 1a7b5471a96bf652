#!/usr/bin/env python3
"""Hash every decision the solver makes on fixed benchmark rounds.

Runs the benchmark's own operations (``bench/run.py``, inputs from
``bench/inputs.py``) on decide-mix, seed 5, rounds 0-3, then x4c-ladder,
seed 5, rounds 0-11.  Every ``is_cover_solvable`` result, the calls made
by ``is_reachable`` included, goes in call order into one sha256 as
``repr((solvable, certificate moves, witness, nodes_expanded,
max_depth))``.  Prints ``<calls> <nodes> <sha256>``; a change that keeps
every verdict, certificate, witness and search cost prints the same line.

Example:
    PYTHONPATH=src python scripts/decision_hash.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True  # leave no byte code under bench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import inputs  # noqa: E402
from run import WORKLOADS  # noqa: E402

import pebbling  # noqa: E402
from pebbling import formats, solver  # noqa: E402

RUNS = (("decide-mix", 5, 4), ("x4c-ladder", 5, 12))  # workload, seed, rounds


def main() -> int:
    digest = hashlib.sha256()
    calls = nodes = 0
    decide = solver.is_cover_solvable

    def recording(*args, **kwargs):
        nonlocal calls, nodes
        res = decide(*args, **kwargs)
        moves = res.certificate.moves if res.certificate is not None else None
        record = (res.solvable, moves, res.witness, res.nodes_expanded, res.max_depth)
        digest.update(repr(record).encode())
        calls += 1
        nodes += res.nodes_expanded
        return res

    # the workloads call the package's name, is_reachable the module's
    pebbling.is_cover_solvable = solver.is_cover_solvable = recording
    lib = SimpleNamespace(pb=pebbling, formats=formats)
    for name, seed, rounds in RUNS:
        workload = WORKLOADS[name]
        for index in range(rounds):
            raw = workload.draw(inputs.round_rng(name, seed, index))
            for item in workload.build(lib, raw):
                workload.run(lib, item)
    print(calls, nodes, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
