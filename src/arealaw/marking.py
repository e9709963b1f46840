"""Fattened graphs, compatible markings, crossings and the boundary area.

Fattening makes every edge disjoint: the fat vertices are exactly the legs,
one fat edge per graph edge.  A marking selects ``s(v)`` legs per vertex
(marked = surviving); its crossings are the fat edges with exactly one
marked endpoint, and the boundary area of a partition is the maximal
crossing count over all compatible markings.  That maximum equals the
maximal flow of the associated network, which is what
:func:`marking_from_flow` realizes constructively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .boundary_flow import FlowResult, build_network, replay_paths
from .errors import CombinatorialLimitError, InconsistencyError
from .graph_model import Graph, Marginal


@dataclass(frozen=True)
class FattenedGraph:
    """Every edge made disjoint; fat vertices are the legs."""

    fat_vertices: tuple[int, ...]              # leg ids
    fat_edges: tuple[tuple[int, int], ...]     # one per graph edge
    projection: dict[int, str]                 # leg id -> graph vertex


@dataclass(frozen=True)
class Marking:
    """A set of marked legs; compatibility means ``|marked legs of v| = s(v)``."""

    marked: frozenset[int]

    def to_document(self) -> list[int]:
        return sorted(self.marked)


def fatten(graph: Graph) -> FattenedGraph:
    fat_edges = tuple((2 * i, 2 * i + 1) for i in range(len(graph.edges)))
    projection = {leg.leg_id: leg.vertex for leg in graph.legs}
    return FattenedGraph(
        fat_vertices=tuple(range(graph.n_legs)),
        fat_edges=fat_edges,
        projection=projection,
    )


def crossings(fat: FattenedGraph, marking: Marking) -> int:
    """Number of fat edges with exactly one marked endpoint."""
    m = marking.marked
    return sum(1 for a, b in fat.fat_edges if (a in m) != (b in m))


def is_compatible(marginal: Marginal, marking: Marking) -> bool:
    g = marginal.graph
    if not marking.marked <= set(range(g.n_legs)):
        return False
    return all(
        sum(1 for leg in g.legs_of(v) if leg in marking.marked) == marginal.s(v)
        for v in g.vertices
    )


def marking_count(marginal: Marginal) -> int:
    """Number of compatible markings: product of per-vertex binomials."""
    g = marginal.graph
    return math.prod(math.comb(g.degree(v), marginal.s(v)) for v in g.vertices)


def iter_compatible_markings(marginal: Marginal):
    """Deterministic enumeration: per-vertex leg combinations in ascending
    order, vertices in document order."""
    g = marginal.graph
    per_vertex = [
        list(itertools.combinations(g.legs_of(v), marginal.s(v)))
        for v in g.vertices
    ]
    for choice in itertools.product(*per_vertex):
        yield Marking(marked=frozenset(itertools.chain.from_iterable(choice)))


@dataclass(frozen=True)
class BruteForceArea:
    area: int
    witness: Marking
    combinations: int


def area_bruteforce(marginal: Marginal, combination_limit: int = 10 ** 6
                    ) -> BruteForceArea:
    """Exact boundary area by exhausting all compatible markings.

    Raises :class:`CombinatorialLimitError` when the marking count exceeds
    ``combination_limit``; callers should then rely on the flow value, which
    is provably equal.
    """
    count = marking_count(marginal)
    if count > combination_limit:
        raise CombinatorialLimitError(
            f"{count} compatible markings exceed the limit {combination_limit}"
        )
    fat = fatten(marginal.graph)
    best = -1
    witness = None
    for marking in iter_compatible_markings(marginal):
        cr = crossings(fat, marking)
        if cr > best:
            best = cr
            witness = marking
    return BruteForceArea(area=best, witness=witness, combinations=count)


# -- constructive translation: flow -> marking ------------------------------


def _search_crossing_plan(marginal: Marginal, target: int):
    """Find integer crossing counts achieving ``target``.

    Variables: per ordered adjacent pair (v, w) the number of crossing edges
    with the v-side leg unmarked and the w-side leg marked; per vertex the
    number of crossing loops.  Budgets: unmarked assignments at v are capped
    by t(v), marked ones by s(v), and each unordered pair or loop pool is
    capped by its edge multiplicity.  A plan summing to the flow value always
    exists (flow = max crossings); branch and bound finds it quickly on the
    small graphs in scope.
    """
    g = marginal.graph
    rem_t = {v: marginal.t(v) for v in g.vertices}
    rem_s = {v: marginal.s(v) for v in g.vertices}

    items: list[tuple] = []
    for i, v in enumerate(g.vertices):
        for w in g.vertices[i + 1:]:
            mult = g.multiplicity(v, w)
            if mult > 0:
                items.append(("pair", v, w, mult))
    for v in g.vertices:
        loops = len(g.loop_indices(v))
        if loops > 0:
            items.append(("loop", v, loops))

    potential = [0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        potential[i] = potential[i + 1] + items[i][-1]

    plan_pairs: dict[tuple[str, str], int] = {}
    plan_loops: dict[str, int] = {}

    def dfs(i: int, acc: int) -> bool:
        if acc == target:
            return True
        if acc > target or i == len(items) or acc + potential[i] < target:
            return False
        item = items[i]
        if item[0] == "pair":
            _, v, w, mult = item
            for fwd in range(min(mult, rem_t[v], rem_s[w]), -1, -1):
                rev_max = min(mult - fwd, rem_t[w], rem_s[v])
                for rev in range(rev_max, -1, -1):
                    rem_t[v] -= fwd
                    rem_s[w] -= fwd
                    rem_t[w] -= rev
                    rem_s[v] -= rev
                    if dfs(i + 1, acc + fwd + rev):
                        plan_pairs[(v, w)] = fwd
                        plan_pairs[(w, v)] = rev
                        return True
                    rem_t[v] += fwd
                    rem_s[w] += fwd
                    rem_t[w] += rev
                    rem_s[v] += rev
        else:
            _, v, loops = item
            for n in range(min(loops, rem_t[v], rem_s[v]), -1, -1):
                rem_t[v] -= n
                rem_s[v] -= n
                if dfs(i + 1, acc + n):
                    plan_loops[v] = n
                    return True
                rem_t[v] += n
                rem_s[v] += n
        return False

    if not dfs(0, 0):
        return None
    return plan_pairs, plan_loops


def marking_from_flow(marginal: Marginal, flow: FlowResult) -> Marking:
    """Translate a maximal flow into a compatible marking whose crossings
    equal the flow value.

    Each flow unit is realized as one crossing: a unit between distinct
    vertices as a crossing edge (unmarked on the source-ward side, marked on
    the sink-ward side), a direct source-vertex-sink unit as a crossing loop.
    Remaining leg marks are completed deterministically, lowest leg id first;
    the completion can never create or destroy crossings beyond the flow
    value, because the flow is also the maximum crossing count.
    """
    g = marginal.graph
    network = build_network(marginal)
    if replay_paths(network, flow.paths) != flow.value:
        raise InconsistencyError("path decomposition does not match the flow value")

    plan = _search_crossing_plan(marginal, flow.value)
    if plan is None:
        raise InconsistencyError(
            "no crossing assignment matches the flow value; invalid flow input"
        )
    plan_pairs, plan_loops = plan

    marked: set[int] = set()
    unmarked: set[int] = set()

    for i, v in enumerate(g.vertices):
        for w in g.vertices[i + 1:]:
            fwd = plan_pairs.get((v, w), 0)
            rev = plan_pairs.get((w, v), 0)
            for edge_index in g.edges_between(v, w):
                a, b = 2 * edge_index, 2 * edge_index + 1
                v_leg, w_leg = (a, b) if g.leg(a).vertex == v else (b, a)
                if fwd > 0:
                    unmarked.add(v_leg)
                    marked.add(w_leg)
                    fwd -= 1
                elif rev > 0:
                    unmarked.add(w_leg)
                    marked.add(v_leg)
                    rev -= 1
    for v, n in plan_loops.items():
        for edge_index in g.loop_indices(v)[:n]:
            unmarked.add(2 * edge_index)
            marked.add(2 * edge_index + 1)

    # completion: satisfy the per-vertex counts, lowest leg id first
    for v in g.vertices:
        need = marginal.s(v) - sum(1 for l in g.legs_of(v) if l in marked)
        for leg in g.legs_of(v):
            if need == 0:
                break
            if leg not in marked and leg not in unmarked:
                marked.add(leg)
                need -= 1
        if need != 0:
            raise InconsistencyError(f"cannot complete marking at vertex {v!r}")

    marking = Marking(marked=frozenset(marked))
    if crossings(fatten(g), marking) != flow.value:
        raise InconsistencyError("constructed marking misses the flow value")
    return marking
