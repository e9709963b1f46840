"""Multigraphs with per-edge dimension ratios and their marginals.

The quantum system behind these structures has one subsystem per edge
endpoint (a "leg"): an edge carries a maximally entangled pair between its
two legs, a vertex groups the legs that interact through one random unitary.
A marginal selects which legs are traced out; everything downstream (flow
networks, markings, predictors, the simulator) speaks in terms of the types
defined here.

Leg numbering is part of the external contract: edges are scanned in list
order and edge ``i`` contributes legs ``2*i`` (first endpoint) and ``2*i+1``
(second endpoint).  Parsing the same document twice yields identical leg
tables.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import ParseError, ValidationError

#: Node names reserved for the flow network's distinguished nodes.
RESERVED_NODE_NAMES = ("source", "sink")


def is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` parses to ``True``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_integer(value, low: int, message: str) -> int:
    """``value`` as an ``int`` if it is an integer (a bool is not one, a
    numpy integer is) of at least ``low``, else ``ValidationError(message)``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValidationError(message)
    return int(value)


@dataclass(frozen=True)
class Edge:
    """An undirected edge; ``u == v`` is a loop.  ``d`` is the integer
    dimension ratio shared by both endpoints (subsystem dimension d*N)."""

    u: str
    v: str
    d: int = 1


@dataclass(frozen=True)
class Leg:
    """One edge endpoint, i.e. one subsystem."""

    leg_id: int
    vertex: str
    edge: int
    ratio: int


@dataclass(frozen=True)
class Graph:
    """A validated multigraph with loops and per-edge dimension ratios."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValidationError("graph has no vertices")
        seen = set()
        for name in self.vertices:
            if not isinstance(name, str) or not name:
                raise ValidationError(f"invalid vertex name {name!r}")
            if name in RESERVED_NODE_NAMES:
                raise ValidationError(f"vertex name {name!r} is reserved")
            if name in seen:
                raise ValidationError(f"duplicate vertex {name!r}")
            seen.add(name)
        if not self.edges:
            raise ValidationError("graph has no edges")
        for i, e in enumerate(self.edges):
            for endpoint in (e.u, e.v):
                if endpoint not in seen:
                    raise ValidationError(
                        f"edge {i} references undefined vertex {endpoint!r}"
                    )
            if not is_int(e.d) or e.d < 1:
                raise ValidationError(
                    f"edge {i} has dimension ratio {e.d!r}; it must be a "
                    "positive integer"
                )
        for name in self.vertices:
            if self.degree(name) == 0:
                raise ValidationError(f"vertex {name!r} has degree 0")

    # -- derived tables ----------------------------------------------------

    @cached_property
    def legs(self) -> tuple[Leg, ...]:
        out = []
        for i, e in enumerate(self.edges):
            out.append(Leg(2 * i, e.u, i, e.d))
            out.append(Leg(2 * i + 1, e.v, i, e.d))
        return tuple(out)

    @cached_property
    def _legs_by_vertex(self) -> dict[str, tuple[int, ...]]:
        table: dict[str, list[int]] = {v: [] for v in self.vertices}
        for leg in self.legs:
            table[leg.vertex].append(leg.leg_id)
        return {v: tuple(ids) for v, ids in table.items()}

    @cached_property
    def _degree(self) -> dict[str, int]:
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    def degree(self, vertex: str) -> int:
        try:
            return self._degree[vertex]
        except KeyError:
            raise ValidationError(f"unknown vertex {vertex!r}") from None

    def legs_of(self, vertex: str) -> tuple[int, ...]:
        """Leg ids attached to ``vertex``, ascending."""
        try:
            return self._legs_by_vertex[vertex]
        except KeyError:
            raise ValidationError(f"unknown vertex {vertex!r}") from None

    def leg(self, leg_id: int) -> Leg:
        if not 0 <= leg_id < len(self.legs):
            raise ValidationError(f"unknown leg id {leg_id!r}")
        return self.legs[leg_id]

    @property
    def n_legs(self) -> int:
        return 2 * len(self.edges)

    def loop_indices(self, vertex: str) -> tuple[int, ...]:
        """Indices of loop edges at ``vertex``."""
        return tuple(
            i for i, e in enumerate(self.edges) if e.u == e.v == vertex
        )

    def to_document(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"u": e.u, "v": e.v, "d": e.d} for e in self.edges],
        }


@dataclass(frozen=True)
class Marginal:
    """A graph and a partition of its legs: ``traced`` holds the traced leg
    ids, validated on construction.  ``counts`` is the counting function
    ``s`` (number of *surviving* legs per vertex) a counts-mode marginal was
    given, kept for :meth:`to_document`; it is ``None`` in legs mode and
    equals :attr:`s_counts` otherwise.  ``t(v) = deg(v) - s(v)`` is always
    the traced count.
    """

    graph: Graph
    traced: frozenset[int]
    counts: Mapping[str, int] | None = None

    def __post_init__(self):
        for leg_id in self.traced:
            if not is_int(leg_id):
                raise ValidationError(f"traced leg id {leg_id!r} is not an integer")
            if not 0 <= leg_id < self.graph.n_legs:
                raise ValidationError(f"traced leg id {leg_id} does not exist")
        if self.counts is not None and (dict(self.counts) != self.s_counts
                                        or not all(map(is_int, self.counts.values()))):
            raise ValidationError(f"counts {dict(self.counts)!r} are not the surviving-"
                                  f"leg counts {self.s_counts!r} of the traced legs")

    def __hash__(self) -> int:
        """Over the fields equality compares, ``counts`` as a set of items."""
        counts = None if self.counts is None else frozenset(self.counts.items())
        return hash((self.graph, self.traced, counts))

    @classmethod
    def from_counts(cls, graph: Graph, s: Mapping[str, int]) -> "Marginal":
        """Trace ``deg(v) - s(v)`` legs at each vertex: its lowest-numbered
        ones (the deterministic completion rule)."""
        s = dict(s)
        for v in graph.vertices:
            if v not in s:
                raise ValidationError(f"missing trace count for vertex {v!r}")
        for v, count in s.items():
            if v not in graph._degree:
                raise ValidationError(f"trace count for unknown vertex {v!r}")
            if not is_int(count):
                raise ValidationError(f"count for vertex {v!r} is not an integer")
            if not 0 <= count <= graph.degree(v):
                raise ValidationError(
                    f"count {count} for vertex {v!r} outside [0, {graph.degree(v)}]"
                )
        traced = frozenset(leg for v in graph.vertices
                           for leg in graph.legs_of(v)[: graph.degree(v) - s[v]])
        return cls(graph, traced, s)

    @classmethod
    def from_legs(cls, graph: Graph, traced: Iterable[int]) -> "Marginal":
        """Trace exactly the legs ``traced`` names."""
        return cls(graph, frozenset(traced))

    @cached_property
    def s_counts(self) -> dict[str, int]:
        """Surviving-leg count per vertex."""
        counts = {v: self.graph.degree(v) for v in self.graph.vertices}
        for leg_id in self.traced:
            counts[self.graph.legs[leg_id].vertex] -= 1
        return counts

    @cached_property
    def crossed(self) -> frozenset[str]:
        """The vertices the partition crosses, ``0 < s(v) < deg(v)``: the
        only ones whose unitary can change the spectrum."""
        return frozenset(v for v in self.graph.vertices
                         if 0 < self.s(v) < self.graph.degree(v))

    @cached_property
    def _network(self):
        """The flow network, built once: see
        :func:`arealaw.boundary_flow.build_network`."""
        from .boundary_flow import _construct_network  # lazy: it imports this module

        return _construct_network(self)

    def s(self, vertex: str) -> int:
        return self.s_counts[vertex]

    def t(self, vertex: str) -> int:
        return self.graph.degree(vertex) - self.s_counts[vertex]

    def to_document(self) -> dict:
        doc = self.graph.to_document()
        if self.counts is not None:
            doc["trace"] = {"mode": "counts", "s": dict(self.counts)}
        else:
            doc["trace"] = {"mode": "legs", "traced": sorted(self.traced)}
        return doc


def is_adapted(marginal: Marginal) -> bool:
    """True iff every vertex is traced either not at all or entirely."""
    return not marginal.crossed


# -- document I/O ----------------------------------------------------------


def _load_document(text: str, kind: str = "graph") -> dict:
    """The JSON object ``text`` holds; malformed or too deeply nested JSON
    is a parse error."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{kind} document must be a JSON object")
    return doc


def graph_from_document(doc: dict) -> Graph:
    if "vertices" not in doc or "edges" not in doc:
        raise ParseError("graph document needs 'vertices' and 'edges'")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise ParseError("'vertices' and 'edges' must be lists")
    edges = []
    for i, rec in enumerate(doc["edges"]):
        if not isinstance(rec, dict) or "u" not in rec or "v" not in rec:
            raise ParseError(f"edge {i} must be an object with 'u' and 'v'")
        if not (isinstance(rec["u"], str) and isinstance(rec["v"], str)):
            raise ParseError(f"edge {i} must name its endpoints with strings")
        d = rec.get("d", 1)
        edges.append(Edge(u=rec["u"], v=rec["v"], d=d))
    return Graph(vertices=tuple(doc["vertices"]), edges=tuple(edges))


def parse_marginal(text: str) -> Marginal:
    """Parse a graph document together with its trace section."""
    doc = _load_document(text)
    graph = graph_from_document(doc)
    rec = doc.get("trace")
    if rec is None:
        raise ParseError("document has no 'trace' section")
    if not isinstance(rec, dict) or "mode" not in rec:
        raise ParseError("'trace' must be an object with a 'mode'")
    if rec["mode"] == "counts":
        if "s" not in rec or not isinstance(rec["s"], dict):
            raise ParseError("counts-mode trace needs an 's' mapping")
        return Marginal.from_counts(graph, rec["s"])
    if rec["mode"] == "legs":
        if (not isinstance(rec.get("traced"), list)
                or any(isinstance(leg, (list, dict)) for leg in rec["traced"])):
            raise ParseError("legs-mode trace needs a 'traced' list of leg ids")
        if len(set(rec["traced"])) < len(rec["traced"]):
            raise ParseError(f"legs-mode trace repeats a leg id: {rec['traced']!r}")
        return Marginal.from_legs(graph, rec["traced"])
    raise ParseError(f"unknown trace mode {rec['mode']!r}")
