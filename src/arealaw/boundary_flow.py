"""Flow network of a marginal: max flow, min cuts and unit-path decompositions.

The network has one node per graph vertex plus two distinguished nodes.
Its arcs are directed: ``t(v)`` from the source to each vertex, ``s(v)`` from
each vertex to the sink, and the number of edges between two
distinct vertices in both directions.  Loops carry no capacity.  The maximal
flow equals the boundary area of the partition (see :mod:`arealaw.marking`
for the dual, marking-based definition).

One engine solves every flow, and every flow is built by position: per
position ``p``, a map from each position ``q`` joined to it by an arc
either way to the capacity of ``p -> q``, source first and sink last.  A
marginal's network is built here (vertex ``k`` at ``1 + k``), the marking's
assignment flow in :mod:`arealaw.marking`.  :func:`build_network` returns
a :class:`FlowNetwork`, the node names and those maps, which solves at most
once and keeps the result (cached); a marginal keeps its network, so every
caller for one marginal reads that one solve.  Breadth-first augmenting
paths (Edmonds-Karp, neighbours in node order) update a copy of the maps, the
residual table, from which a network reads both extremal minimum cuts
(residual reachability from the source, and co-reachability of the sink; a
tie is two distinct cuts) and the decomposition of the final flow (capacity
minus residual) into unit source-sink paths.  Memory is linear in the
number of arcs.  Positions become names only in the :class:`FlowResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InconsistencyError
from .graph_model import RESERVED_NODE_NAMES, Marginal

SOURCE, SINK = RESERVED_NODE_NAMES


@dataclass(frozen=True)
class FlowNetwork:
    """What :func:`build_network` returns: the node names and, per node
    position, the arc map the engine solves (keys ascending, 0 for an arc
    that only runs the other way).  Read only: a flow works on a copy."""

    nodes: tuple[str, ...]  # (source, vertices in document order, sink)
    arcs: list[dict[int, int]]

    @cached_property
    def _flow(self) -> FlowResult:
        """The maximum flow, with its unit paths and both extremal minimum
        cuts."""
        capacity = self.arcs
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
    """The flow network of a marginal, built by position (as every flow is,
    the marking's assignment flow too) on the first call and kept on the
    marginal: every later call for the same :class:`Marginal` object returns
    the same :class:`FlowNetwork`, and so reaches the same solved flow."""
    return marginal._network


def _construct_network(marginal: Marginal) -> FlowNetwork:
    """The network :func:`build_network` keeps: vertex ``k`` at ``1 + k``."""
    g = marginal.graph
    position = {v: 1 + k for k, v in enumerate(g.vertices)}
    sink = 1 + len(position)
    arcs: list[dict[int, int]] = [{} for _ in range(sink + 1)]
    for v, p in position.items():
        if t := marginal.t(v):
            arcs[0][p], arcs[p][0] = t, 0
        if s := marginal.s(v):
            arcs[p][sink], arcs[sink][p] = s, 0
    for e in g.edges:
        if e.u != e.v:
            i, j = position[e.u], position[e.v]
            arcs[i][j] = arcs[j][i] = arcs[i].get(j, 0) + 1
    return FlowNetwork(nodes=(SOURCE, *g.vertices, SINK),
                       arcs=[dict(sorted(row.items())) for row in arcs])


def _augment(arcs: list[dict[int, int]]) -> list[dict[int, int]]:
    """Edmonds-Karp on arc maps laid out as :attr:`FlowNetwork.arcs` has
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
