#!/usr/bin/env python3
"""Benchmark of the pebbling engine: number sweeps, the X4C ladder and a
decision mix, driven through the package's public functions.

    python3 bench/run.py --workload numbers-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One process, one closed-loop client, no threads.  A run imports the package
from ``src/`` of the checkout, then runs whole rounds of seeded operations
until ``--seconds`` have passed; every round draws fresh inputs, so no
operation repeats in a process.  Outputs are checked against the references
in ``reference.py`` after the timed pass.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path
from statistics import mean, median, quantiles
from types import SimpleNamespace

import inputs
import reference
from spans import GRAPH_SPAN, Tracer, absent_layers, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 15  # set-ups per run; setup_s is their median
# A p99 needs ten operations beyond it; only decide-mix runs that many.
TAIL_OPS = 1000


def import_package() -> SimpleNamespace:
    """Import ``pebbling`` afresh, compiled from source.

    Byte-code caching is off, so the import costs the same whatever earlier
    runs left on disk.
    """
    for name in [k for k in sys.modules if k == "pebbling" or k.startswith("pebbling.")]:
        del sys.modules[name]
    sys.dont_write_bytecode = True
    prefix = sys.pycache_prefix
    sys.pycache_prefix = str(ROOT / ".bench_build" / "no-bytecode")
    try:
        return SimpleNamespace(
            pb=importlib.import_module("pebbling"),
            formats=importlib.import_module("pebbling.formats"),
        )
    finally:
        sys.pycache_prefix = prefix


# -- workloads -------------------------------------------------------------------
#
# Each workload draws a round of raw inputs (plain data and text), builds
# the program objects an operation starts from, runs one operation, and
# checks one output against its raw input.


class NumbersSweep:
    """gamma(G, unit) and pi(G), one operation per number."""

    name = "numbers-sweep"
    layers = ("numbers", "solver", GRAPH_SPAN)

    def draw(self, rng):
        return [(kind, g) for g in inputs.number_graphs(rng) for kind in ("gamma", "pi")]

    def build(self, lib, cases):
        graphs = {}
        items = []
        for kind, g in cases:
            if g.label not in graphs:
                graphs[g.label] = (lib.pb.Graph(g.n, g.edges), lib.pb.Demand.unit(g.n))
            items.append((kind, *graphs[g.label]))
        return items

    def run(self, lib, item):
        kind, graph, demand = item
        if kind == "gamma":
            result = lib.pb.cover_pebbling_number(graph, demand)
        else:
            result = lib.pb.pebbling_number(graph)
        return result.value, result.extremal_config.counts

    def check(self, case, out):
        kind, g = case
        value, witness = out
        return reference.check_number(kind, g.family, g.size, g.n, g.edges, value, witness)


class X4CLadder:
    """X4C text -> reduction -> one capped search; n=2 yes-instances also
    build and test the number-threshold witness."""

    name = "x4c-ladder"
    layers = ("formats.parse", "reductions.build", "reductions.x4c_solve", "solver", GRAPH_SPAN)

    def draw(self, rng):
        return inputs.ladder_cases(rng)

    def build(self, lib, cases):
        return [(case.text, case.yes and case.n == 2) for case in cases]

    def run(self, lib, item):
        text, threshold = item
        pb = lib.pb
        inst = lib.formats.parse_x4c(text)
        red = pb.reduce_to_cover_solvability(inst)
        res = pb.is_cover_solvable(red.graph, red.config, red.demand, node_cap=inputs.NODE_CAP)
        out = {
            "verdict": res.solvable,
            "moves": res.certificate.moves if res.solvable else (),
            "red": (red.graph.n, red.graph.edges, red.config.counts, red.demand.counts),
            "chain": None,
        }
        if threshold:
            cover = pb.x4c_solve(inst)
            nred = pb.reduce_to_number_threshold(inst)
            witness = pb.number_witness_config(inst, cover)
            reach = pb.is_reachable(nred.graph, witness, nred.target, node_cap=inputs.NODE_CAP)
            out["chain"] = (cover, nred.vertex_names, witness.counts, reach.solvable)
        return out

    def check(self, case, out):
        problems = reference.check_x4c(case.n, case.sets, out["verdict"], *out["red"], out["moves"])
        if (out["chain"] is None) == (case.yes and case.n == 2):
            problems.append("threshold witness missing or unexpected")
        elif out["chain"] is not None:
            problems += reference.check_number_witness(case.n, case.sets, *out["chain"])
        return problems


class DecideMix:
    """Instance text -> parse -> decide -> certificate round trip -> verify."""

    name = "decide-mix"
    layers = ("formats.parse", "formats.write", "solver", "core.verify", GRAPH_SPAN)

    def draw(self, rng):
        return inputs.decisions(rng)

    def build(self, lib, cases):
        return [case.text for case in cases]

    def run(self, lib, text):
        formats = lib.formats
        inst = formats.parse_instance(text)
        res = lib.pb.is_cover_solvable(inst.graph, inst.config, inst.demand, node_cap=inputs.NODE_CAP)
        if not res.solvable:
            return False, res.nodes_expanded, None, None
        cert = formats.write_certificate(inst, res.certificate)
        ml = formats.certificate_to_movelist(inst, formats.parse_certificate(cert))
        return True, res.nodes_expanded, cert, lib.pb.verify_solution(inst.graph, inst.config, inst.demand, ml)

    def check(self, case, out):
        verdict, _, cert, verified = out
        moves = reference.read_certificate(cert, case.names) if verdict else []
        problems = reference.check_decision(case.n, case.edges, case.config, case.demand, verdict, moves)
        if verdict and verified is not True:
            problems.append("verify_solution rejected the round-tripped certificate")
        return problems

    @staticmethod
    def kind(out) -> str:
        verdict, nodes = out[0], out[1]
        if nodes == 0:
            return "root-decided"
        return "solvable by search" if verdict else "unsolvable by search"


WORKLOADS = {w.name: w for w in (NumbersSweep(), X4CLadder(), DecideMix())}


# -- one run -----------------------------------------------------------------------


def timed_pass(workload, lib, items, seed: int, seconds: float, tracer: Tracer | None, spill):
    """Whole rounds until ``seconds`` have passed.

    With a tracer the odd rounds are traced, and there are at least two
    rounds.  Each round's outputs go to ``spill`` as one JSON line, so the
    memory a run holds does not grow with the number of rounds.  Returns
    ``(traced, wall seconds, op seconds)`` per round, and the span range of
    round 1.
    """
    rounds = []
    round1 = None
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            lo = len(tracer.spans)
            tracer.install()
        if index > 0:
            raw = workload.draw(inputs.round_rng(workload.name, seed, index))
            if traced:
                with tracer.region("build"):
                    items = workload.build(lib, raw)
            else:
                items = workload.build(lib, raw)
        outputs, failed, op_s = [], {}, array("d")
        wall0 = time.perf_counter_ns()
        for i, item in enumerate(items):
            t0 = time.perf_counter_ns()
            out = None
            try:
                if traced:
                    with tracer.region("op"):
                        out = workload.run(lib, item)
                else:
                    out = workload.run(lib, item)
            except Exception as exc:  # one failed operation must not end the run
                traceback.print_exc(file=sys.stderr)
                failed[i] = repr(exc)
            op_s.append((time.perf_counter_ns() - t0) / 1e9)
            outputs.append(out)
        wall = (time.perf_counter_ns() - wall0) / 1e9
        if traced:
            tracer.remove()
            if round1 is None:
                round1 = (lo, len(tracer.spans))
        spill.write(json.dumps({"outputs": outputs, "failed": failed}) + "\n")
        rounds.append((traced, wall, op_s))
        index += 1
        if time.perf_counter() - start >= seconds and (tracer is None or index >= 2):
            return rounds, round1


def check_rounds(workload, seed: int, spill):
    """Check every output read back from ``spill`` against its regenerated
    input.

    Returns the operations attempted and failed, the problems found, and
    the count of outputs of each kind the workload names.
    """
    attempted = failed = 0
    problems: list[str] = []
    kinds: dict[str, int] = {}
    for index, line in enumerate(spill):
        record = json.loads(line)
        raw = workload.draw(inputs.round_rng(workload.name, seed, index))
        for i, (case, out) in enumerate(zip(raw, record["outputs"])):
            attempted += 1
            if str(i) in record["failed"]:
                failed += 1
                continue
            try:
                found = workload.check(case, out)
            except Exception as exc:  # a malformed output is a wrong answer
                found = [f"output could not be checked: {exc!r}"]
            problems += [f"round {index}: {p}" for p in found]
            if hasattr(workload, "kind"):
                kinds[workload.kind(out)] = kinds.get(workload.kind(out), 0) + 1
    return attempted, failed, problems, kinds


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    raw = workload.draw(inputs.round_rng(workload.name, seed, 0))
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        lib = import_package()
        items = workload.build(lib, raw)
        setups.append(time.perf_counter() - t0)

    tracer = Tracer() if traced else None
    OUT.mkdir(exist_ok=True)
    spill_path = OUT / f"{workload.name}-seed{seed}-trace{int(traced)}.outputs.jsonl"
    with open(spill_path, "w", encoding="utf-8") as spill:
        rounds, round1 = timed_pass(workload, lib, items, seed, seconds, tracer, spill)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(spill_path, encoding="utf-8") as spill:
        attempted, failed, problems, kinds = check_rounds(workload, seed, spill)

    plain = [r for r in rounds if not r[0]]
    if traced:
        metrics = layer_metrics(tracer.spans, *round1)
        for name in absent_layers(tracer.spans, *round1, workload.layers):
            print(f"LAYER ABSENT {workload.name}: no call reached the {name} boundary; "
                  "its metrics read 0", file=sys.stderr)
        traced_walls = [r[1] for r in rounds if r[0]]
        metrics["trace.overhead_s"] = (median(traced_walls) - median(r[1] for r in plain), "s")
        tracer.write(OUT / f"{workload.name}-seed{seed}.spans.jsonl")
    else:
        op_s = [t for r in plain for t in r[2]]
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (mean(r[1] for r in plain), "s"),
            "op_p50_ms": (median(op_s) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if len(op_s) >= TAIL_OPS:
            p99 = quantiles(op_s, n=100)[98] * 1e3
            print(f"  op_p99_ms = {p99:.6g} ms over {len(op_s)} operations", file=sys.stderr)
    for p in problems[:20]:
        print(f"CHECK FAILED {workload.name}: {p}", file=sys.stderr)
    print(
        f"{workload.name}: seed {seed}, {len(rounds)} rounds, {attempted} operations, "
        f"{failed} failed, {len(problems)} wrong",
        file=sys.stderr,
    )
    for kind, count in sorted(kinds.items()):
        print(f"  {kind}: {count} ({count / attempted:.1%})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd, check=False).returncode
        return status

    if not (ROOT / "src" / "pebbling" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'pebbling'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
