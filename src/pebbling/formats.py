"""Text file formats: pebbling instances, move certificates, exact-cover
instances.

Instances are line-oriented and human-auditable::

    vertices v1 v2 v3
    edge v1 v2
    edge v2 v3
    config v1 7
    demand_kind unit

``config`` and ``demand`` lines carry one entry each and omitted vertices
default to zero; ``demand_kind`` (``unit`` or ``reach:<name>``) replaces
explicit ``demand`` lines.  Lines starting with ``#`` and blank lines are
ignored.  The writer is canonical: vertex names sorted, edges sorted, one
field order, so equal instances serialize to identical bytes.

Certificates are ``move <from> <to> <count>`` lines, one per directed pair.
Exact-cover instances are ``n m`` on the first line followed by m lines of
four elements each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Configuration, Demand, Graph, MoveList, PebblingError
from .reductions import MalformedInstance, X4CInstance


class FormatError(PebblingError):
    """A file failed to parse; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Instance:
    """A named pebbling instance as read from or written to a file."""

    names: tuple[str, ...]
    graph: Graph
    config: Configuration
    demand: Demand
    demand_kind: str | None = None  # "unit", "reach:<name>", or None

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown vertex name {name!r}") from None


def _tokenized_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((i, line.split()))
    return out


def _int_field(lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(lineno, f"{what} must be an integer, got {token!r}")


def parse_instance(text: str) -> Instance:
    names: list[str] | None = None
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    config: dict[int, int] = {}
    demand: dict[int, int] = {}
    demand_kind: str | None = None
    first_line = kind_line = 1

    def need_vertex(lineno: int, name: str) -> int:
        if name not in index:
            raise FormatError(lineno, f"undeclared vertex {name!r}")
        return index[name]

    for lineno, tokens in _tokenized_lines(text):
        key, rest = tokens[0], tokens[1:]
        if names is None and key != "vertices":
            raise FormatError(lineno, "vertices line must come first")
        if key == "vertices":
            if names is not None:
                raise FormatError(lineno, "duplicate vertices line")
            if not rest:
                raise FormatError(lineno, "vertices line names no vertices")
            if len(set(rest)) != len(rest):
                raise FormatError(lineno, "vertex names must be unique")
            names = rest
            index = {name: i for i, name in enumerate(names)}
            first_line = lineno
        elif key == "edge":
            if len(rest) != 2:
                raise FormatError(lineno, "edge line needs exactly two names")
            u, v = (need_vertex(lineno, nm) for nm in rest)
            if u == v:
                raise FormatError(lineno, "self-loops are not allowed")
            edges.append((u, v))
        elif key == "config":
            if len(rest) != 2:
                raise FormatError(lineno, "config line needs a name and a count")
            v = need_vertex(lineno, rest[0])
            if v in config:
                raise FormatError(lineno, f"duplicate config entry for {rest[0]!r}")
            count = _int_field(lineno, rest[1], "pebble count")
            if count < 0:
                raise FormatError(lineno, "pebble counts are non-negative")
            config[v] = count
        elif key == "demand":
            if demand_kind is not None:
                raise FormatError(lineno, "demand lines conflict with demand_kind")
            if len(rest) != 2:
                raise FormatError(lineno, "demand line needs a name and a count")
            v = need_vertex(lineno, rest[0])
            if v in demand:
                raise FormatError(lineno, f"duplicate demand entry for {rest[0]!r}")
            count = _int_field(lineno, rest[1], "demand count")
            if count < 0:
                raise FormatError(lineno, "demands are non-negative")
            demand[v] = count
        elif key == "demand_kind":
            if demand:
                raise FormatError(lineno, "demand_kind conflicts with demand lines")
            if demand_kind is not None:
                raise FormatError(lineno, "duplicate demand_kind line")
            if len(rest) != 1:
                raise FormatError(lineno, "demand_kind line needs one value")
            demand_kind = rest[0]
            kind_line = lineno
        else:
            raise FormatError(lineno, f"unknown field {key!r}")

    if names is None:
        raise FormatError(first_line, "missing vertices line")
    n = len(names)
    try:
        graph = Graph(n, edges)
    except ValueError as exc:
        raise FormatError(first_line, str(exc))
    counts = tuple(config.get(i, 0) for i in range(n))
    if demand_kind is None:
        dem = Demand(tuple(demand.get(i, 0) for i in range(n)))
    else:
        try:
            dem = demand_of_kind(demand_kind, names)
        except ValueError as exc:
            raise FormatError(kind_line, str(exc))
    return Instance(tuple(names), graph, Configuration(counts), dem, demand_kind)


def demand_of_kind(kind: str, names: Sequence[str]) -> Demand:
    """The demand a ``demand_kind`` value names over the vertices ``names``.

    ``unit`` demands one pebble everywhere and ``reach:<name>`` one pebble
    on the named vertex; anything else raises ValueError.
    """
    if kind == "unit":
        return Demand.unit(len(names))
    if not kind.startswith("reach:"):
        raise ValueError(f"demand kind must be unit or reach:<name>, got {kind!r}")
    target = kind[len("reach:"):]
    if target not in names:
        raise ValueError(f"reach target {target!r} is not a vertex")
    return Demand.reach(len(names), names.index(target))


def write_instance(instance: Instance) -> str:
    """Canonical serialization: sorted names, sorted edges, zero entries
    omitted."""
    order = sorted(range(len(instance.names)), key=lambda i: instance.names[i])
    names = [instance.names[i] for i in order]
    lines = ["vertices " + " ".join(names)]
    name_of = instance.names
    edge_lines = sorted(
        "edge {} {}".format(*sorted((name_of[u], name_of[v])))
        for u, v in instance.graph.edges
    )
    lines.extend(edge_lines)
    for i in order:
        if instance.config.counts[i]:
            lines.append(f"config {name_of[i]} {instance.config.counts[i]}")
    if instance.demand_kind is not None:
        lines.append(f"demand_kind {instance.demand_kind}")
    else:
        for i in order:
            if instance.demand.counts[i]:
                lines.append(f"demand {name_of[i]} {instance.demand.counts[i]}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> list[tuple[str, str, int]]:
    """Move records as (from_name, to_name, count); counts are >= 1 and each
    directed pair appears once.  Adjacency is checked against the companion
    instance when the certificate is applied, not here.
    """
    records: list[tuple[str, str, int]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, tokens in _tokenized_lines(text):
        if tokens[0] != "move" or len(tokens) != 4:
            raise FormatError(lineno, "expected: move <from> <to> <count>")
        frm, to = tokens[1], tokens[2]
        count = _int_field(lineno, tokens[3], "move count")
        if count < 1:
            raise FormatError(lineno, "move counts are at least 1")
        if (frm, to) in seen:
            raise FormatError(lineno, f"duplicate move record {frm} -> {to}")
        seen.add((frm, to))
        records.append((frm, to, count))
    return records


def write_certificate(instance: Instance, ml: MoveList) -> str:
    lines = [
        f"move {instance.names[u]} {instance.names[w]} {q}" for u, w, q in ml.items()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def certificate_to_movelist(instance: Instance, records: list[tuple[str, str, int]]) -> MoveList:
    return MoveList(
        [(instance.index_of(frm), instance.index_of(to), q) for frm, to, q in records]
    )


def parse_x4c(text: str) -> X4CInstance:
    lines = _tokenized_lines(text)
    if not lines:
        raise FormatError(1, "empty exact-cover file")
    lineno, header = lines[0]
    if len(header) != 2:
        raise FormatError(lineno, "first line must be: n m")
    n = _int_field(lineno, header[0], "n")
    m = _int_field(lineno, header[1], "m")
    if len(lines) - 1 != m:
        raise FormatError(lineno, f"expected {m} set lines, found {len(lines) - 1}")
    sets = []
    for lineno, tokens in lines[1:]:
        if len(tokens) != 4:
            raise FormatError(lineno, "each set line needs exactly four elements")
        sets.append(frozenset(_int_field(lineno, t, "element") for t in tokens))
    try:
        return X4CInstance(n, tuple(sets))
    except MalformedInstance as exc:
        # lines[0] is the header, and set i is on lines[i]
        raise FormatError(lines[exc.set_number][0], str(exc))
