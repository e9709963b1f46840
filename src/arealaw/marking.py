"""Compatible markings, crossings and the boundary area.

Fattening makes every edge disjoint: the fat vertices are exactly the legs,
one fat edge per graph edge (edge ``i`` joins legs ``2i`` and ``2i + 1``).
A marking selects ``s(v)`` legs per vertex (marked = surviving); its
crossings are the fat edges with exactly one marked endpoint, and the
boundary area of a partition is the maximal crossing count over all
compatible markings.  That maximum equals the maximal flow of the
associated network.  :func:`marking_from_flow` realizes it constructively:
no marking crosses more edges than a cut's capacity, and one assignment
flow on the same max-flow engine finds a marking that crosses exactly that
many; it goes to the engine as arc maps by position (source 0, edge ``i``
of ``E`` at ``1 + i``, vertex ``k`` at ``1 + E + k``, sink last).  It reads
only the flow's cut and value, not its paths: the filled drains and the
crossing count certify the marking, and with it the cut and the value.
:func:`area_bruteforce` is the independent route: it never touches a flow
and enumerates the markings as leg bitmasks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .boundary_flow import FlowResult, _augment
from .errors import CombinatorialLimitError, InconsistencyError
from .graph_model import Marginal, _count_text


@dataclass(frozen=True)
class Marking:
    """A set of marked legs; compatibility means ``|marked legs of v| = s(v)``."""

    marked: frozenset[int]

    def to_document(self) -> list[int]:
        return sorted(self.marked)


def marking_count(marginal: Marginal) -> int:
    """Number of compatible markings: product of per-vertex binomials."""
    g = marginal.graph
    return math.prod(math.comb(g.degree(v), marginal.s(v)) for v in g.vertices)


def _marking_masks(marginal: Marginal):
    """Every compatible marking as a bitmask of its marked legs, in a fixed
    order: per-vertex leg combinations in ascending order, vertices in
    document order."""
    g = marginal.graph
    per_vertex = [
        [sum(1 << leg for leg in combo)
         for combo in itertools.combinations(g.legs_of(v), marginal.s(v))]
        for v in g.vertices
    ]
    return map(sum, itertools.product(*per_vertex))  # disjoint bits: sum is OR


@dataclass(frozen=True)
class BruteForceArea:
    area: int
    witness: Marking
    combinations: int


def area_bruteforce(marginal: Marginal, combination_limit: int = 10 ** 6
                    ) -> BruteForceArea:
    """Exact boundary area by exhausting all compatible markings.

    The independent route to the area: no flow is solved.  Markings are
    enumerated as leg bitmasks in the order of :func:`_marking_masks`, and
    the witness is the first one with the most crossings.  Raises :class:`CombinatorialLimitError` when the
    marking count exceeds ``combination_limit``; callers should then rely on
    the flow value, which is provably equal.
    """
    count = marking_count(marginal)
    if count > combination_limit:
        raise CombinatorialLimitError(
            f"{_count_text(count)} compatible markings exceed the limit "
            f"{_count_text(combination_limit)}"
        )
    # legs 2i and 2i+1 are the two ends of edge i: bit 2i of m ^ (m >> 1)
    # is set iff edge i crosses
    even = sum(1 << leg for leg in range(0, marginal.graph.n_legs, 2))
    best = -1
    witness = 0
    for mask in _marking_masks(marginal):
        crossed = ((mask ^ (mask >> 1)) & even).bit_count()
        if crossed > best:
            best = crossed
            witness = mask
    marked = frozenset(l for l in range(marginal.graph.n_legs) if witness >> l & 1)
    return BruteForceArea(area=best, witness=Marking(marked), combinations=count)


# -- constructive translation: flow -> marking ------------------------------


def marking_from_flow(marginal: Marginal, flow: FlowResult) -> Marking:
    """Translate a maximal flow into a compatible marking whose crossings
    equal the flow value, read off the flow's minimum cut.

    Let S be the cut's vertex side and T the rest.  Charge each crossing
    edge to its marked leg if that leg is in S, else to its unmarked leg if
    that leg is in T, else to the edge itself (an S-T edge).  No target is
    charged twice, so crossings are at most ``sum_S s + sum_T t + e(S, T)``,
    the cut capacity.  A marking that reaches it uses every charge: each S-T
    edge crosses with its S leg unmarked, each marked leg in S crosses an
    edge inside S, and each unmarked leg in T crosses an edge inside T.

    One max flow finds such legs: the source feeds each edge not cut by S,
    each edge feeds one of its endpoints, and each vertex drains ``s(v)``
    (in S) or ``t(v)`` (in T) into the sink, on arc maps by position: source
    0, edge ``i`` of ``E`` at ``1 + i``, vertex ``k`` at ``1 + E + k``, sink
    last.  The fed legs in S and the unfed legs in T are marked.

    Only the cut's vertex side and the flow value are read: ``flow.paths``
    is not, and no flow network is built.  The output certifies itself.
    The drains are all filled exactly when S is a minimum cut, and a
    marking that then crosses ``flow.value`` edges is a maximum one, so
    ``flow.value`` is the boundary area.  A flow that does not fill every
    drain, or a marking that misses the flow value, raises
    :class:`InconsistencyError`.
    """
    g = marginal.graph
    side = set(flow.cut)
    vertex = {v: 1 + len(g.edges) + k for k, v in enumerate(g.vertices)}
    sink = 1 + len(g.edges) + len(g.vertices)
    arcs: list[dict[int, int]] = [{} for _ in range(sink + 1)]
    for i, e in enumerate(g.edges):
        if (e.u in side) == (e.v in side):
            ends = sorted({vertex[e.u], vertex[e.v]})  # one end for a loop
            arcs[0][1 + i] = 1
            arcs[1 + i] = {0: 0, **dict.fromkeys(ends, 1)}
            for p in ends:
                arcs[p][1 + i] = 0
    for v, p in vertex.items():
        if drain := (marginal.s(v) if v in side else marginal.t(v)):
            arcs[p][sink], arcs[sink][p] = drain, 0
    residual, _ = _augment(arcs)
    # a drain the flow does not fill keeps residual capacity into the sink
    if any(residual[p].get(sink) for p in vertex.values()):
        raise InconsistencyError("the cut admits no leg assignment")

    fed = set()
    for i, e in enumerate(g.edges):
        # a unit arc carries flow iff its residual is zero (a cut edge has none)
        row = residual[1 + i]
        if row.get(vertex[e.u]) == 0:
            fed.add(2 * i)
        elif row.get(vertex[e.v]) == 0:
            fed.add(2 * i + 1)
    marked = frozenset(
        leg.leg_id for leg in g.legs if (leg.leg_id in fed) == (leg.vertex in side))
    if sum((2 * i in marked) != (2 * i + 1 in marked)
           for i in range(len(g.edges))) != flow.value:
        raise InconsistencyError("constructed marking misses the flow value")
    return Marking(marked=marked)
