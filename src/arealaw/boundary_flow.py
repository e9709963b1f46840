"""Flow network of a marginal: max flow, min cuts and unit-path decompositions.

The network has one node per graph vertex plus two distinguished nodes.
Its arcs are directed: ``t(v)`` from the source to each vertex, ``s(v)`` from
each vertex to the sink, and the multiplicity of the edges between two
distinct vertices in both directions.  Loops carry no capacity.  The maximal
flow equals the boundary area of the partition (see :mod:`arealaw.marking`
for the dual, marking-based definition).

Networks here are tiny (vertex count + 2 nodes; the assignment network of
:func:`arealaw.marking.marking_from_flow` adds one node per edge), so the
solver favours auditability: breadth-first augmenting paths, an explicit
decomposition of the final flow into unit source-sink paths, and min-cut tie
detection via the two extremal cuts of the residual graph.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .errors import InconsistencyError, ValidationError
from .graph_model import Marginal

SOURCE = "source"
SINK = "sink"


@dataclass(frozen=True)
class FlowNetwork:
    """Integer capacities on directed arcs; an undirected edge is two arcs."""

    nodes: tuple[Hashable, ...]  # (source, inner nodes in document order, sink)
    capacities: Mapping[tuple[Hashable, Hashable], int]  # (tail, head) -> cap

    @cached_property
    def _linked(self) -> dict[Hashable, tuple[Hashable, ...]]:
        """Per node, the nodes joined to it by an arc either way, in node
        order: the only candidates for a residual arc."""
        linked: dict[Hashable, set] = {n: set() for n in self.nodes}
        for a, b in self.capacities:
            linked[a].add(b)
            linked[b].add(a)
        return {n: tuple(m for m in self.nodes if m in linked[n])
                for n in self.nodes}

    def cap(self, a: Hashable, b: Hashable) -> int:
        return self.capacities.get((a, b), 0)

    @property
    def graph_vertices(self) -> tuple[Hashable, ...]:
        return self.nodes[1:-1]


@dataclass(frozen=True)
class FlowResult:
    value: int
    paths: tuple[tuple[str, ...], ...]
    cut: tuple[str, ...]  # source side of a minimum cut
    cut_tied: bool        # True iff more than one minimum cut exists
    # the network the flow was solved on, reused by the marking; not part
    # of the result's value
    network: FlowNetwork | None = field(default=None, compare=False, repr=False)

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
    """Construct the flow network of a marginal."""
    g = marginal.graph
    nodes = (SOURCE, *g.vertices, SINK)
    caps: dict[tuple[str, str], int] = {}
    for v in g.vertices:
        t = marginal.t(v)
        s = marginal.s(v)
        if t > 0:
            caps[(SOURCE, v)] = t
        if s > 0:
            caps[(v, SINK)] = s
    for i, v in enumerate(g.vertices):
        for w in g.vertices[i + 1:]:
            mult = g.multiplicity(v, w)
            if mult > 0:
                caps[(v, w)] = caps[(w, v)] = mult
    return FlowNetwork(nodes=nodes, capacities=caps)


def _residual(network: FlowNetwork, flow: Mapping[tuple[Hashable, Hashable], int],
              a: Hashable, b: Hashable) -> int:
    """Residual capacity from ``a`` to ``b`` under a flow per ordered pair."""
    return network.cap(a, b) - flow.get((a, b), 0) + flow.get((b, a), 0)


def _max_flow_net(network: FlowNetwork) -> dict[tuple[Hashable, Hashable], int]:
    """Edmonds-Karp; returns net flow per ordered pair (flows in opposite
    directions are cancelled)."""
    flow: dict[tuple[Hashable, Hashable], int] = defaultdict(int)
    while True:
        # shortest augmenting path in the residual graph
        parent: dict[Hashable, Hashable] = {SOURCE: SOURCE}
        queue = deque([SOURCE])
        while queue:
            node = queue.popleft()
            if node == SINK:
                break
            for other in network._linked[node]:
                if (other not in parent
                        and _residual(network, flow, node, other) > 0):
                    parent[other] = node
                    queue.append(other)
        if SINK not in parent:
            break
        path = [SINK]
        while path[-1] != SOURCE:
            path.append(parent[path[-1]])
        path.reverse()
        bottleneck = min(_residual(network, flow, a, b)
                         for a, b in zip(path, path[1:]))
        for a, b in zip(path, path[1:]):
            cancel = min(flow[(b, a)], bottleneck)
            flow[(b, a)] -= cancel
            flow[(a, b)] += bottleneck - cancel
    return {k: v for k, v in flow.items() if v > 0}


def _reachable(network: FlowNetwork, net: Mapping[tuple[Hashable, Hashable], int],
               start: Hashable, forward: bool) -> set[Hashable]:
    """Residual reachability from ``start``; ``forward=False`` follows
    residual arcs backwards (who can still reach ``start``)."""
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in network._linked[node]:
            if other in seen:
                continue
            a, b = (node, other) if forward else (other, node)
            if _residual(network, net, a, b) > 0:
                seen.add(other)
                queue.append(other)
    return seen


def _decompose_unit_paths(network: FlowNetwork,
                          net: Mapping[tuple[str, str], int],
                          value: int) -> tuple[tuple[str, ...], ...]:
    """Split a net flow into ``value`` unit source-sink paths, cancelling any
    circulation encountered along the way."""
    out: dict[str, dict[str, int]] = defaultdict(dict)
    for (a, b), f in net.items():
        if f > 0:
            out[a][b] = f

    def next_hop(node: str) -> str | None:
        for other in network.nodes:  # deterministic node order
            if out[node].get(other, 0) > 0:
                return other
        return None

    paths = []
    for _ in range(value):
        path = [SOURCE]
        position = {SOURCE: 0}
        while path[-1] != SINK:
            nxt = next_hop(path[-1])
            if nxt is None:
                raise InconsistencyError("flow conservation violated during decomposition")
            if nxt in position:
                # cancel the cycle and resume from its entry point
                start = position[nxt]
                for a, b in zip(path[start:], path[start + 1:] + [nxt]):
                    out[a][b] -= 1
                for node in path[start + 1:]:
                    del position[node]
                del path[start + 1:]
                continue
            position[nxt] = len(path)
            path.append(nxt)
        for a, b in zip(path, path[1:]):
            out[a][b] -= 1
        paths.append(tuple(path))
    return tuple(paths)


def cut_capacity(network: FlowNetwork, source_side: Iterable[Hashable]) -> int:
    """Capacity of the arcs leaving ``source_side``."""
    side = set(source_side)
    if SOURCE not in side or SINK in side:
        raise ValidationError("cut must contain the source and not the sink")
    return sum(c for (a, b), c in network.capacities.items()
               if a in side and b not in side)


def max_flow(network: FlowNetwork) -> FlowResult:
    """Exact integer maximum flow with a unit-path decomposition and a
    minimum-cut certificate."""
    net = _max_flow_net(network)
    value = sum(f for (a, _), f in net.items() if a == SOURCE) \
        - sum(f for (_, b), f in net.items() if b == SOURCE)
    minimal = _reachable(network, net, SOURCE, forward=True)
    coreach = _reachable(network, net, SINK, forward=False)
    maximal = set(network.nodes) - coreach
    cut = tuple(n for n in network.nodes if n in minimal)
    if cut_capacity(network, minimal) != value:
        raise InconsistencyError("min cut does not certify the flow value")
    tied = minimal != maximal
    paths = _decompose_unit_paths(network, net, value)
    return FlowResult(value=value, paths=paths, cut=cut, cut_tied=tied,
                      network=network)


def min_cut(network: FlowNetwork) -> MinCut:
    """A minimum source-side cut, its capacity, and whether it is tied.

    The returned cut is the smallest one (residual reachability from the
    source); uniqueness holds iff it coincides with the largest one.
    """
    result = max_flow(network)
    return MinCut(source_side=result.cut, capacity=result.value, tied=result.cut_tied)


def replay_paths(network: FlowNetwork, paths: Iterable[tuple[str, ...]]) -> int:
    """Push unit paths through a fresh copy of the network; returns the total
    flow and raises if any capacity or endpoint rule is violated."""
    usage: dict[tuple[str, str], int] = defaultdict(int)
    count = 0
    for path in paths:
        if len(path) < 2 or path[0] != SOURCE or path[-1] != SINK:
            raise InconsistencyError(f"path {path} must run source -> sink")
        for node in path[1:-1]:
            if node not in network.graph_vertices:
                raise InconsistencyError(f"path interior node {node!r} is not a graph vertex")
        for a, b in zip(path, path[1:]):
            usage[(a, b)] += 1
        count += 1
    for (a, b), used in usage.items():
        if used + usage.get((b, a), 0) > network.cap(a, b):
            raise InconsistencyError(f"capacity exceeded on ({a}, {b})")
    return count
