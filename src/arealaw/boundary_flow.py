"""Flow network of a marginal: max flow, min cuts and unit-path decompositions.

The network has one node per graph vertex plus two distinguished nodes.
Its arcs are directed: ``t(v)`` from the source to each vertex, ``s(v)`` from
each vertex to the sink, and the number of edges between two
distinct vertices in both directions.  Loops carry no capacity.  The maximal
flow equals the boundary area of the partition (see :mod:`arealaw.marking`
for the dual, marking-based definition).

One engine solves every flow on arc maps by position, not names: per
position ``p``, a map from each position ``q`` joined to it by an arc either
way to the capacity of ``p -> q``, source first and sink last.  The
marking's assignment flow builds its maps itself; a :class:`FlowNetwork` is
the named, validated form that the API and a marginal's network use.  It
derives its maps once and solves at most once, keeping both (cached), and a
marginal keeps its network, so every caller of :func:`build_network` for
one marginal reads that one solve.  Breadth-first augmenting paths
(Edmonds-Karp, neighbours in node order) update a copy of the maps, the
residual table, from which a network reads both extremal minimum cuts
(residual reachability from the source, and co-reachability of the sink; a
tie is two distinct cuts) and the decomposition of the final flow (capacity
minus residual) into unit source-sink paths.  Memory is linear in the
number of arcs.  Positions become names only in the :class:`FlowResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping

from .errors import InconsistencyError, ValidationError
from .graph_model import RESERVED_NODE_NAMES, Marginal, is_int

SOURCE, SINK = RESERVED_NODE_NAMES


@dataclass(frozen=True)
class FlowNetwork:
    """Integer capacities on directed arcs; an undirected edge is two arcs."""

    nodes: tuple[Hashable, ...]  # (source, inner nodes in document order, sink)
    capacities: Mapping[tuple[Hashable, Hashable], int]  # (tail, head) -> cap

    @cached_property
    def _arcs(self) -> list[dict[int, int]]:
        """Per node position, the positions joined to it by an arc either
        way, ascending, each mapped to the capacity of the arc to it (0 for
        an arc that only runs the other way).  Read only: a flow works on a
        copy.  Repeated node names, and capacities that are not
        non-negative integers, are a :class:`ValidationError`."""
        if not self.nodes or self.nodes[0] != SOURCE or self.nodes[-1] != SINK:
            raise ValidationError("a network's nodes must run from source to sink")
        index = {node: i for i, node in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            raise ValidationError("a network's nodes must be distinct")
        arcs = [{} for _ in self.nodes]
        for (a, b), c in self.capacities.items():
            try:
                i, j = index[a], index[b]
            except KeyError as exc:
                raise ValidationError(
                    f"arc ({a!r}, {b!r}) names {exc.args[0]!r}, which is not "
                    f"a node of the network") from None
            if not is_int(c) or c < 0:
                raise ValidationError(
                    f"arc ({a!r}, {b!r}) has capacity {c!r}; it must be a "
                    "non-negative integer")
            arcs[i][j] = c
            arcs[j].setdefault(i, 0)
        return [dict(sorted(row.items())) for row in arcs]

    @cached_property
    def _flow(self) -> FlowResult:
        """The maximum flow, with its unit paths and both extremal minimum
        cuts."""
        capacity = self._arcs
        residual = _augment(capacity)
        value = sum(capacity[0].values()) - sum(residual[0].values())
        minimal = _search(residual, 0)
        coreach = _search(residual, len(residual) - 1, forward=False)
        if sum(c for i, row in enumerate(capacity) if minimal[i] >= 0
               for j, c in row.items() if minimal[j] < 0) != value:
            raise InconsistencyError("min cut does not certify the flow value")
        nodes = self.nodes
        return FlowResult(
            value=value,
            # consumes the residual table: every other read of it comes first
            paths=tuple(tuple(nodes[i] for i in p)
                        for p in _unit_paths(capacity, residual, value)),
            cut=tuple(node for node, p in zip(nodes, minimal) if p >= 0),
            # every node that cannot reach the sink: the largest minimum cut
            cut_max=tuple(node for node, p in zip(nodes, coreach) if p < 0))


@dataclass(frozen=True)
class FlowResult:
    value: int
    paths: tuple[tuple[str, ...], ...]
    cut: tuple[str, ...]      # source side of the smallest minimum cut
    cut_max: tuple[str, ...]  # source side of the largest minimum cut

    @property
    def cut_tied(self) -> bool:
        """True iff more than one minimum cut exists."""
        return self.cut != self.cut_max

    def to_document(self) -> dict:
        return {
            "X": self.value,
            "paths": [list(p) for p in self.paths],
            "cut": list(self.cut),
            "cut_tied": self.cut_tied,
        }


@dataclass(frozen=True)
class MinCut:
    source_side: tuple[str, ...]
    capacity: int
    tied: bool


def build_network(marginal: Marginal) -> FlowNetwork:
    """The flow network of a marginal, built on the first call and kept on
    the marginal: every later call for the same :class:`Marginal` object
    returns the same network, and so reaches the same solved flow."""
    return marginal._network


def _construct_network(marginal: Marginal) -> FlowNetwork:
    """The network that :func:`build_network` keeps on a marginal."""
    g = marginal.graph
    caps: dict[tuple[str, str], int] = {}
    for v in g.vertices:
        if t := marginal.t(v):
            caps[(SOURCE, v)] = t
        if s := marginal.s(v):
            caps[(v, SINK)] = s
    for e in g.edges:
        if e.u != e.v:
            caps[(e.u, e.v)] = caps[(e.v, e.u)] = caps.get((e.u, e.v), 0) + 1
    return FlowNetwork(nodes=(SOURCE, *g.vertices, SINK), capacities=caps)


def _augment(arcs: list[dict[int, int]]) -> list[dict[int, int]]:
    """Edmonds-Karp on arc maps laid out as :attr:`FlowNetwork._arcs` has
    them (source first, sink last, keys ascending, a reverse-only arc held
    as 0); returns the residual maps of a maximum flow, ``arcs`` untouched."""
    residual = [row.copy() for row in arcs]
    sink = len(residual) - 1
    while True:
        parent = _search(residual, 0)
        if parent[sink] < 0:
            return residual
        path = [sink]
        while path[-1]:
            path.append(parent[path[-1]])
        hops = list(zip(path[1:], path))
        bottleneck = min(residual[a][b] for a, b in hops)
        for a, b in hops:
            residual[a][b] -= bottleneck
            residual[b][a] += bottleneck


def _search(residual: list[dict[int, int]], start: int,
            forward: bool = True) -> list[int]:
    """Breadth-first search of the residual arcs from ``start``, neighbours
    in node order: per position, the node it was reached from (``start``
    for itself), or -1 if unreached.  ``forward=False`` follows residual
    arcs backwards (who can still reach ``start``).  A forward search stops
    once the sink (the last position) is reached: a parent is final once
    set, so the path to the sink is a shortest augmenting path."""
    parent = [-1] * len(residual)
    parent[start] = start
    sink = len(residual) - 1
    queue = [start]
    for node in queue:
        for other, r in residual[node].items():
            if parent[other] < 0 and (r if forward else residual[other][node]) > 0:
                parent[other] = node
                queue.append(other)
        if forward and parent[sink] >= 0:
            break
    return parent


def _unit_paths(capacity: list[dict[int, int]], residual: list[dict[int, int]],
                value: int) -> list[list[int]]:
    """Split the net flow ``capacity - residual`` into ``value`` unit
    source-sink paths of positions, cancelling any circulation encountered
    along the way.  Only positive net flows are read; consumes ``residual``
    (taking a unit off arc ``a -> b`` adds one to its residual)."""
    sink = len(capacity) - 1

    def next_hop(node: int) -> int | None:
        row = residual[node]
        for other, c in capacity[node].items():  # deterministic node order
            if c > row[other]:
                return other
        return None

    paths = []
    for _ in range(value):
        path = [0]
        position = {0: 0}
        while path[-1] != sink:
            nxt = next_hop(path[-1])
            if nxt is None:
                raise InconsistencyError("flow conservation violated during decomposition")
            if nxt in position:
                # cancel the cycle and resume from its entry point
                start = position[nxt]
                for a, b in zip(path[start:], path[start + 1:] + [nxt]):
                    residual[a][b] += 1
                for node in path[start + 1:]:
                    del position[node]
                del path[start + 1:]
                continue
            position[nxt] = len(path)
            path.append(nxt)
        for a, b in zip(path, path[1:]):
            residual[a][b] += 1
        paths.append(path)
    return paths


def max_flow(network: FlowNetwork) -> FlowResult:
    """Exact integer maximum flow with a unit-path decomposition and a
    minimum-cut certificate.  The network solves on the first call and
    keeps the result: later calls, and :func:`min_cut`, return it."""
    return network._flow


def min_cut(network: FlowNetwork) -> MinCut:
    """A minimum source-side cut, its capacity, and whether it is tied.

    The returned cut is the smallest one (residual reachability from the
    source); uniqueness holds iff it coincides with the largest one, the
    flow's ``cut_max``.
    """
    result = network._flow
    return MinCut(source_side=result.cut, capacity=result.value, tied=result.cut_tied)
