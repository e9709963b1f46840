import itertools

import numpy as np
import pytest

from arealaw import (
    CombinatorialLimitError,
    Edge,
    FlowResult,
    Graph,
    InconsistencyError,
    Marginal,
    Marking,
    area_bruteforce,
    build_network,
    marking_from_flow,
    max_flow,
)
from arealaw.boundary_flow import SINK, SOURCE
from arealaw.marking import _marking_masks, marking_count

from conftest import (
    NamedNetwork,
    all_counting_functions,
    black_hole,
    black_hole_counts,
    crossings,
    cut_capacity,
    enumerate_small_graphs,
    fatten,
    is_compatible,
    iter_compatible_markings,
    named,
    oxygen,
    random_marginal,
    single_loop,
    two_loops,
)


def test_fatten_single_loop():
    fat = fatten(single_loop().graph)
    assert fat.fat_vertices == (0, 1)
    assert fat.fat_edges == ((0, 1),)
    assert fat.projection == {0: "V", 1: "V"}


def test_fatten_black_hole():
    fat = fatten(black_hole(traced=[0]).graph)
    assert len(fat.fat_vertices) == 4
    assert fat.fat_edges == ((0, 1), (2, 3))
    # fat edges are pairwise disjoint
    legs = [l for e in fat.fat_edges for l in e]
    assert len(legs) == len(set(legs))


def test_fatten_is_perfect_matching():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_marginal(rng).graph
        fat = fatten(g)
        assert len(fat.fat_edges) == len(g.edges)
        legs = [l for e in fat.fat_edges for l in e]
        assert sorted(legs) == list(range(g.n_legs))


def test_crossings_single_loop():
    fat = fatten(single_loop().graph)
    assert crossings(fat, Marking(marked=frozenset({0}))) == 1
    assert crossings(fat, Marking(marked=frozenset({0, 1}))) == 0


def test_crossings_oxygen_enumeration():
    m = oxygen(traced=[0, 1])  # s = (1, 1): four compatible markings
    fat = fatten(m.graph)
    values = {}
    for marking in iter_compatible_markings(m):
        values[tuple(sorted(marking.marked))] = crossings(fat, marking)
    assert len(values) == 4
    assert values[(0, 1)] == 0        # marks on the same edge
    assert values[(0, 3)] == 2        # marks on opposite edges
    assert max(values.values()) == 2


def test_area_single_loop():
    result = area_bruteforce(single_loop(s=1))
    assert result.area == 1
    assert result.combinations == 2


def test_area_black_hole_adapted():
    result = area_bruteforce(black_hole(traced=[0, 3]))
    assert result.area == 2
    assert result.witness.marked == frozenset({1, 2})  # both V2 legs


def test_area_two_loops():
    result = area_bruteforce(two_loops(s=2))
    assert result.area == 2
    assert result.combinations == 6
    # a maximizer marks one leg of each loop
    marked = result.witness.marked
    assert len(marked & {0, 1}) == 1 and len(marked & {2, 3}) == 1


def test_combination_limit():
    with pytest.raises(CombinatorialLimitError):
        area_bruteforce(two_loops(s=2), combination_limit=5)


def test_marking_from_flow_single_loop():
    m = single_loop(s=1)
    flow = max_flow(build_network(m))
    marking = marking_from_flow(m, flow)
    assert len(marking.marked) == 1
    assert marking.marked < {0, 1}


def test_marking_from_flow_black_hole():
    m = black_hole(traced=[0, 3])
    flow = max_flow(build_network(m))
    marking = marking_from_flow(m, flow)
    assert marking.marked == frozenset({1, 2})
    assert crossings(fatten(m.graph), marking) == 2


def test_marking_from_flow_zero_flow():
    m = black_hole_counts(0, 0, 0)  # everything traced
    flow = max_flow(build_network(m))
    assert flow.value == 0
    marking = marking_from_flow(m, flow)
    assert marking.marked == frozenset()


def test_marking_from_flow_long_and_direct_paths():
    # this marginal decomposes into a length-3 path plus a direct unit
    m = black_hole(traced=[0, 1])
    flow = max_flow(build_network(m))
    marking = marking_from_flow(m, flow)
    assert is_compatible(m, marking)
    assert crossings(fatten(m.graph), marking) == flow.value == 2


def test_adapted_marking_unique():
    m = black_hole(traced=[0, 3])
    assert marking_count(m) == 1
    only = next(iter_compatible_markings(m))
    assert crossings(fatten(m.graph), only) == 2


def test_duality_small_exhaustive():
    # every graph with <= 3 vertices and <= 3 edges, every counting function
    for g in enumerate_small_graphs(max_vertices=3, max_edges=3):
        for s in all_counting_functions(g):
            m = Marginal.from_counts(g, s)
            flow = max_flow(build_network(m))
            brute = area_bruteforce(m)
            assert brute.area == flow.value
            marking = marking_from_flow(m, flow)
            assert is_compatible(m, marking)
            assert crossings(fatten(g), marking) == flow.value


def test_marking_from_flow_random():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = random_marginal(rng, max_vertices=6, max_edges=9)
        flow = max_flow(build_network(m))
        marking = marking_from_flow(m, flow)
        assert is_compatible(m, marking)
        assert crossings(fatten(m.graph), marking) == flow.value
        if marking_count(m) <= 10 ** 5:
            assert area_bruteforce(m).area == flow.value


def test_marking_from_flow_rejects_bad_decomposition():
    m = single_loop(s=1)
    bogus = FlowResult(
        value=2,
        paths=(("source", "V", "sink"), ("source", "V", "sink")),
        cut=("source",), cut_max=("source", "V"),
    )
    with pytest.raises(InconsistencyError):
        marking_from_flow(m, bogus)

    # valid paths, but the cut {V2} has capacity 6, not the flow value 2:
    # the assignment cannot fill its drains
    m = black_hole(traced=[0, 3])
    flow = max_flow(build_network(m))
    assert flow.value == 2
    not_minimum = FlowResult(value=flow.value, paths=flow.paths,
                             cut=("source", "V2"), cut_max=("source", "V2"))
    with pytest.raises(InconsistencyError, match="assignment"):
        marking_from_flow(m, not_minimum)


def test_marking_certifies_every_cut():
    # every census-family marginal with at most 3 vertices and every vertex
    # set S as the cut: the marking is refused exactly when S is not a
    # minimum cut, and crosses the flow value otherwise
    checked = 0
    for g in enumerate_small_graphs(max_vertices=3, max_edges=5):
        for s in all_counting_functions(g):
            m = Marginal.from_counts(g, s)
            network = build_network(m)
            solved = max_flow(network)
            by_name = named(network)
            value = solved.value
            for k in range(len(g.vertices) + 1):
                for side in itertools.combinations(g.vertices, k):
                    cut = (SOURCE, *side)
                    flow = FlowResult(value=value, paths=solved.paths, cut=cut,
                                      cut_max=cut)
                    if cut_capacity(by_name, cut) != value:
                        with pytest.raises(InconsistencyError):
                            marking_from_flow(m, flow)
                    else:
                        marking = marking_from_flow(m, flow)
                        assert is_compatible(m, marking)
                        assert crossings(fatten(g), marking) == value
                    checked += 1
    assert checked == 31814


def test_marking_from_flow_builds_no_network():
    # a flow solved on one marginal, handed over with an equal but distinct
    # one: the marking reads the flow alone and builds no network for it
    m = black_hole(traced=[0, 3])
    twin = black_hole(traced=[0, 3])
    assert twin == m and twin is not m
    flow = max_flow(build_network(m))
    assert marking_from_flow(twin, flow) == marking_from_flow(m, flow)
    assert "_network" not in vars(twin)


def test_marking_from_flow_reuses_the_flow_network(monkeypatch):
    from arealaw import boundary_flow

    m = black_hole(traced=[0, 3])
    network = build_network(m)
    flow = max_flow(network)
    assert build_network(m) is network
    bare = FlowResult(value=flow.value, paths=flow.paths, cut=flow.cut,
                      cut_max=flow.cut_max)
    assert flow == bare and hash(flow) == hash(bare)
    assert repr(flow) == repr(bare)
    assert flow.to_document() == bare.to_document()
    expected = marking_from_flow(m, bare)

    def rebuilt(marginal):
        raise AssertionError("the network was rebuilt")

    monkeypatch.setattr(boundary_flow, "_construct_network", rebuilt)
    assert marking_from_flow(m, flow) == expected


def _named_assignment_arcs(marginal, flow):
    """The assignment's arc maps built from named nodes, as
    :meth:`NamedNetwork.flow_network` lays them out: the source feeds each
    edge not cut by the flow's cut, each such edge its endpoints, and each
    vertex drains ``s(v)`` (cut side) or ``t(v)`` into the sink."""
    g = marginal.graph
    side = set(flow.cut)
    caps = {}
    for i, e in enumerate(g.edges):
        if (e.u in side) == (e.v in side):
            caps[(SOURCE, i)] = 1
            caps[(i, e.u)] = caps[(i, e.v)] = 1
    for v in g.vertices:
        drain = marginal.s(v) if v in side else marginal.t(v)
        if drain > 0:
            caps[(v, SINK)] = drain
    return NamedNetwork(nodes=(SOURCE, *range(len(g.edges)), *g.vertices, SINK),
                        capacities=caps).flow_network().arcs


def test_assignment_arcs_match_the_named_network(solves):
    # every census-family marginal with at most 3 vertices, and again with
    # every edge's endpoints swapped: census edges list the earlier vertex
    # first, so only the swap shows an edge row whose keys do not ascend
    checked = 0
    for g in enumerate_small_graphs(max_vertices=3, max_edges=5):
        swapped = Graph(g.vertices, tuple(Edge(e.v, e.u, e.d) for e in g.edges))
        for graph in (g, swapped):
            for s in all_counting_functions(graph):
                m = Marginal.from_counts(graph, s)
                flow = max_flow(build_network(m))
                solves.clear()
                marking_from_flow(m, flow)
                [arcs] = solves
                expected = _named_assignment_arcs(m, flow)
                assert len(arcs) == len(expected)
                for row, want in zip(arcs, expected):
                    assert list(row.items()) == list(want.items())
                checked += 1
    assert checked == 8642


def test_monotonicity_add_crossing_edge():
    base = black_hole_counts(0, 2, 1)  # V1 fully traced, V3 fully surviving
    area = area_bruteforce(base).area
    g = base.graph
    bigger = Graph(vertices=g.vertices,
                   edges=g.edges + (Edge(u="V1", v="V3", d=1),))
    counts = {v: base.s(v) for v in g.vertices}
    counts["V3"] += 1  # the new surviving leg at V3
    m2 = Marginal.from_counts(bigger, counts)
    assert area_bruteforce(m2).area == area + 1


def test_witness_serialization_sorted():
    result = area_bruteforce(black_hole(traced=[0, 3]))
    assert result.witness.to_document() == sorted(result.witness.marked)


def test_enumeration_is_deterministic():
    m = two_loops(s=2)
    first = [m_.marked for m_ in iter_compatible_markings(m)]
    second = [m_.marked for m_ in iter_compatible_markings(m)]
    assert first == second
    assert first == [frozenset(c) for c in itertools.combinations((0, 1, 2, 3), 2)]
    # the brute force scans its bitmasks in the oracle's order
    for marginal in (m, oxygen(traced=[0, 1]), black_hole_counts(1, 1, 1)):
        n_legs = marginal.graph.n_legs
        assert [frozenset(l for l in range(n_legs) if mask >> l & 1)
                for mask in _marking_masks(marginal)] == [
            m_.marked for m_ in iter_compatible_markings(marginal)]
