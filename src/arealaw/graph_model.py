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
import math
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


def _count_text(n: int) -> str:
    """A count as a message prints it: in full up to 18 digits, else as
    ``about 10^k`` (Python refuses ``str`` of an int of over 4300 digits)."""
    return f"{n}" if n < 10 ** 18 else f"about 10^{math.floor(math.log10(n))}"


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
    """A validated multigraph with loops and per-edge dimension ratios.

    The leg table is built with the validation: ``legs`` holds every leg
    in id order, and each vertex's leg ids are kept, ascending, for
    :meth:`legs_of` and :meth:`degree`."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValidationError("graph has no vertices")
        by_vertex: dict[str, list[int]] = {}
        for name in self.vertices:
            if not isinstance(name, str) or not name:
                raise ValidationError(f"invalid vertex name {name!r}")
            if name in RESERVED_NODE_NAMES:
                raise ValidationError(f"vertex name {name!r} is reserved")
            if name in by_vertex:
                raise ValidationError(f"duplicate vertex {name!r}")
            by_vertex[name] = []
        if not self.edges:
            raise ValidationError("graph has no edges")
        legs = []
        for i, e in enumerate(self.edges):
            for leg_id, endpoint in enumerate((e.u, e.v), 2 * i):
                if endpoint not in by_vertex:
                    raise ValidationError(f"edge {i} references undefined "
                                          f"vertex {endpoint!r}")
                legs.append(Leg(leg_id, endpoint, i, e.d))
                by_vertex[endpoint].append(leg_id)
            if not is_int(e.d) or e.d < 1:
                raise ValidationError(f"edge {i} has dimension ratio {e.d!r}; "
                                      "it must be a positive integer")
        for name, ids in by_vertex.items():
            if not ids:
                raise ValidationError(f"vertex {name!r} has degree 0")
        object.__setattr__(self, "legs", tuple(legs))
        object.__setattr__(self, "_legs_by_vertex",
                           {v: tuple(ids) for v, ids in by_vertex.items()})

    def degree(self, vertex: str) -> int:
        return len(self.legs_of(vertex))

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
        return tuple(i for i, e in enumerate(self.edges) if e.u == e.v == vertex)

    def to_document(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"u": e.u, "v": e.v, "d": e.d} for e in self.edges],
        }


@dataclass(frozen=True)
class Marginal:
    """A graph and a partition of its legs: ``traced`` holds the traced leg
    ids, validated on construction.  The validation also builds
    ``s_counts``, the number of *surviving* legs per vertex (the counting
    function ``s``), and ``crossed``, the vertices the partition crosses,
    ``0 < s(v) < deg(v)``: the only ones whose unitary can change the
    spectrum.  ``by_counts`` marks a marginal built from its counts:
    :meth:`to_document` then writes ``s_counts`` in vertex order instead of
    the traced legs.  ``t(v) = deg(v) - s(v)`` is always the traced count.
    """

    graph: Graph
    traced: frozenset[int]
    by_counts: bool = False

    def __post_init__(self):
        g = self.graph
        s_counts = {v: len(ids) for v, ids in g._legs_by_vertex.items()}
        for leg_id in self.traced:
            if not is_int(leg_id):
                raise ValidationError(f"traced leg id {leg_id!r} is not an integer")
            if not 0 <= leg_id < g.n_legs:
                raise ValidationError(f"traced leg id {leg_id} does not exist")
            s_counts[g.legs[leg_id].vertex] -= 1
        object.__setattr__(self, "s_counts", s_counts)
        object.__setattr__(self, "crossed", frozenset(
            v for v, s in s_counts.items() if 0 < s < g.degree(v)))

    @classmethod
    def from_counts(cls, graph: Graph, s: Mapping[str, int]) -> "Marginal":
        """Trace ``deg(v) - s(v)`` legs at each vertex: its lowest-numbered
        ones (the deterministic completion rule)."""
        s = dict(s)
        for v in graph.vertices:
            if v not in s:
                raise ValidationError(f"missing trace count for vertex {v!r}")
        for v, count in s.items():
            if v not in graph._legs_by_vertex:
                raise ValidationError(f"trace count for unknown vertex {v!r}")
            if not is_int(count):
                raise ValidationError(f"count for vertex {v!r} is not an integer")
            if not 0 <= count <= graph.degree(v):
                raise ValidationError(
                    f"count {count} for vertex {v!r} outside [0, {graph.degree(v)}]"
                )
        traced = frozenset(leg for v in graph.vertices
                           for leg in graph.legs_of(v)[: graph.degree(v) - s[v]])
        return cls(graph, traced, by_counts=True)

    @classmethod
    def from_legs(cls, graph: Graph, traced: Iterable[int]) -> "Marginal":
        """Trace exactly the legs ``traced`` names."""
        return cls(graph, frozenset(traced))

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
        if self.by_counts:
            doc["trace"] = {"mode": "counts", "s": dict(self.s_counts)}
        else:
            doc["trace"] = {"mode": "legs", "traced": sorted(self.traced)}
        return doc


def is_adapted(marginal: Marginal) -> bool:
    """True iff every vertex is traced either not at all or entirely."""
    return not marginal.crossed


# -- document I/O ----------------------------------------------------------


def _load_document(text: str, kind: str = "graph") -> dict:
    """The JSON object ``text`` holds; malformed or too deeply nested JSON,
    or an integer too long to convert, is a parse error."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
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
