"""Command-line surface.

Subcommands::

    solve       decide cover solvability of an instance file
    reach       decide reachability of --target
    canonical   decide whether every vertex is reachable
    number      cover pebbling number (instance demand or --demand-kind)
    pi          pebbling number
    oracle      breadth-first reference decision
    verify      check a move certificate against an instance
    gamma       exact potential of --target
    reduce      build one of the three hardness constructions

Exit codes: 0 solvable / verified / value computed; 1 unsolvable / invalid
certificate; 2 usage or format error; 3 search budget exceeded.  Reports go
to stderr in text mode so stdout stays pipeable (solve/reach print bare
certificates, reduce prints a re-parsable instance file); ``--json`` swaps
both for a single JSON document on stdout with exact integers throughout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .core import (
    BudgetExceeded,
    Demand,
    EdgeViolation,
    PebblingError,
    apply_moves,
    gamma,
)
from .formats import (
    Instance,
    certificate_to_movelist,
    demand_of_kind,
    parse_certificate,
    parse_instance,
    parse_x4c,
    write_certificate,
    write_instance,
)
from .numbers import cover_pebbling_number, pebbling_number
from .reductions import (
    ReducedInstance,
    reduce_cover_to_canonical,
    reduce_to_cover_solvability,
    reduce_to_number_threshold,
)
from .solver import (
    DEFAULT_NODE_CAP,
    DEFAULT_STATE_CAP,
    is_canonical_solvable,
    is_cover_solvable,
    oracle_solvable,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _node_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expected a count of at least 0, got {text!r}")
    return cap


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--instance", metavar="FILE", help="instance file")
    common.add_argument("--json", action="store_true", help="machine-readable report")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument(
        "--node-cap",
        type=_node_cap,
        default=DEFAULT_NODE_CAP,
        metavar="N",
        help="search node cap (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="pebbling", description="Exact graph pebbling engine."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[capped], help="decide cover solvability")
    p = sub.add_parser("reach", parents=[capped], help="decide reachability")
    p.add_argument("--target", required=True, metavar="NAME")
    sub.add_parser("canonical", parents=[capped], help="decide canonical solvability")
    p = sub.add_parser("number", parents=[common], help="cover pebbling number")
    p.add_argument(
        "--demand-kind",
        metavar="KIND",
        help="unit or reach:<name>; default is the instance demand",
    )
    sub.add_parser("pi", parents=[common], help="pebbling number")
    sub.add_parser("oracle", parents=[capped], help="breadth-first reference decision")
    p = sub.add_parser("verify", parents=[common], help="check a certificate")
    p.add_argument("--certificate", required=True, metavar="FILE")
    p = sub.add_parser("gamma", parents=[common], help="exact potential of a vertex")
    p.add_argument("--target", required=True, metavar="NAME")
    p = sub.add_parser("reduce", parents=[common], help="build a hardness instance")
    p.add_argument(
        "kind", choices=["x4c-cover", "x4c-number", "cover-to-canonical"]
    )
    p.add_argument("--x4c", metavar="FILE", help="exact-cover input file")
    return parser


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # become part of the first token
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read()


def _load_instance(args: argparse.Namespace) -> Instance:
    if not args.instance:
        raise PebblingError("--instance FILE is required for this command")
    return parse_instance(_read(args.instance))


def _emit(args: argparse.Namespace, report: dict, stdout_text: str = "") -> None:
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        if stdout_text:
            sys.stdout.write(stdout_text)
        summary = report.get("status") or report.get("value")
        print(f"{report['command']}: {summary}", file=sys.stderr)
        for key in ("witness", "unreachable", "violated_vertex", "threshold", "target"):
            if report.get(key) not in (None, []):
                print(f"  {key}: {report[key]}", file=sys.stderr)


def _certificate_json(instance: Instance, ml) -> list[dict]:
    return [
        {"from": instance.names[u], "to": instance.names[w], "count": q}
        for u, w, q in ml.items()
    ]


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if args.command == "reach":
        d = Demand.reach(instance.graph.n, instance.index_of(args.target))
    else:
        d = instance.demand
    result = is_cover_solvable(
        instance.graph, instance.config, d, node_cap=args.node_cap
    )
    report = {
        "command": args.command,
        "status": result.status,
        "witness": instance.names[result.witness] if result.witness is not None else None,
        "certificate": _certificate_json(instance, result.certificate)
        if result.certificate is not None
        else None,
        "nodes_expanded": result.nodes_expanded,
        "max_depth": result.max_depth,
    }
    text = (
        write_certificate(instance, result.certificate) if result.solvable else ""
    )
    _emit(args, report, text)
    return EXIT_OK if result.solvable else EXIT_NEGATIVE


def _cmd_canonical(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    result = is_canonical_solvable(
        instance.graph, instance.config, node_cap=args.node_cap
    )
    report = {
        "command": "canonical",
        "status": "canonical" if result.canonical else "not-canonical",
        "unreachable": [instance.names[v] for v in result.unreachable],
    }
    _emit(args, report)
    return EXIT_OK if result.canonical else EXIT_NEGATIVE


def _cmd_number(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if args.command == "pi":
        result = pebbling_number(instance.graph)
    else:
        d = instance.demand
        if args.demand_kind:
            d = demand_of_kind(args.demand_kind, instance.names)
        result = cover_pebbling_number(instance.graph, d)
    report = {
        "command": args.command,
        "value": result.value,
        "extremal_config": {
            instance.names[i]: x
            for i, x in enumerate(result.extremal_config.counts)
            if x
        },
        "configs_checked": result.configs_checked,
    }
    _emit(args, report, f"{result.value}\n")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    # the oracle stores every configuration it visits, so it keeps the
    # library's state cap even when --node-cap asks for more
    solvable = oracle_solvable(
        instance.graph,
        instance.config,
        instance.demand,
        state_cap=min(args.node_cap, DEFAULT_STATE_CAP),
    )
    report = {"command": "oracle", "status": "solvable" if solvable else "unsolvable"}
    _emit(args, report)
    return EXIT_OK if solvable else EXIT_NEGATIVE


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    records = parse_certificate(_read(args.certificate))
    ml = certificate_to_movelist(instance, records)
    try:
        final = apply_moves(instance.graph, instance.config, ml).counts
    except EdgeViolation as exc:
        report = {"command": "verify", "status": "invalid", "violated_vertex": None,
                  "reason": str(exc)}
        _emit(args, report)
        return EXIT_NEGATIVE
    # one tally, the one verify_solution checks: the certificate solves the
    # instance exactly when no vertex ends below its demand
    violated = next(
        (name for name, x, want in zip(instance.names, final, instance.demand.counts)
         if x < want),
        None,
    )
    report = {
        "command": "verify",
        "status": "verified" if violated is None else "invalid",
        "violated_vertex": violated,
    }
    _emit(args, report)
    return EXIT_OK if violated is None else EXIT_NEGATIVE


def _cmd_gamma(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    target = instance.index_of(args.target)
    value = gamma(instance.graph, instance.config, instance.demand, target)
    report = {
        "command": "gamma",
        "status": str(value),
        "vertex": args.target,
        "numerator": value.numerator,
        "log2_denominator": value.denominator.bit_length() - 1,
        "negative": value < 0,
    }
    _emit(args, report, f"{value}\n")
    return EXIT_OK


def reduced_to_instance(red: ReducedInstance) -> Instance:
    """File-level view of a construction: demand from its kind and target."""
    if red.demand is not None:
        demand = red.demand
        kind = "unit" if demand.counts == (1,) * red.graph.n else None
    else:
        demand = Demand.reach(red.graph.n, red.target)
        kind = f"reach:{red.vertex_names[red.target]}"
    return Instance(red.vertex_names, red.graph, red.config, demand, kind)


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.kind in ("x4c-cover", "x4c-number"):
        if not args.x4c:
            raise PebblingError("--x4c FILE is required for this reduction")
        inst = parse_x4c(_read(args.x4c))
        red = (
            reduce_to_cover_solvability(inst)
            if args.kind == "x4c-cover"
            else reduce_to_number_threshold(inst)
        )
    else:
        instance = _load_instance(args)
        # the construction encodes unit-cover solvability and no other demand
        if instance.demand.counts != (1,) * instance.graph.n:
            raise PebblingError("cover-to-canonical needs the unit demand")
        red = reduce_cover_to_canonical(instance.graph, instance.config)
    out = reduced_to_instance(red)
    text = write_instance(out)
    report = {
        "command": "reduce",
        "status": red.kind,
        "trivial": red.trivial,
        "threshold": red.threshold,
        "target": red.vertex_names[red.target] if red.target is not None else None,
        "vertex_roles": dict(zip(red.vertex_names, red.vertex_roles)),
        "config": {
            name: x for name, x in zip(red.vertex_names, red.config.counts) if x
        },
        "edges": sorted(
            sorted((red.vertex_names[u], red.vertex_names[v]))
            for u, v in red.graph.edges
        ),
        "instance_text": text,
    }
    _emit(args, report, text)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "reach": _cmd_solve,
    "canonical": _cmd_canonical,
    "number": _cmd_number,
    "pi": _cmd_number,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "gamma": _cmd_gamma,
    "reduce": _cmd_reduce,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PebblingError, ValueError, KeyError, OSError) as exc:
        # every other refusal is about the input, an unreadable path included:
        # never exit 1, "unsolvable"; str() of a KeyError is its key's repr
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        message = " ".join(str(text).split())
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
