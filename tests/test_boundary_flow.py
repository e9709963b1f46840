import gc
import itertools
import json
import tracemalloc
import weakref
from collections import defaultdict, deque

import numpy as np
import pytest

from arealaw import (
    Edge,
    FlowResult,
    Graph,
    Marginal,
    MinCut,
    area_bruteforce,
    build_network,
    marking_from_flow,
    max_flow,
    min_cut,
    parse_marginal,
    predict_entropy,
)
from arealaw.boundary_flow import SINK, SOURCE, _unit_paths

from conftest import (
    NamedNetwork,
    all_counting_functions,
    black_hole,
    cap,
    cut_capacity,
    enumerate_small_graphs,
    fatten,
    lattice_doc,
    marginal_from,
    named,
    named_network,
    oxygen,
    random_marginal,
    replay_paths,
    single_loop,
    two_loops,
)


# -- reference: the name-keyed max-flow engine -------------------------------
#
# The engine solved flows on node names before it moved to node positions;
# it stays here, on networks built by name (``conftest.NamedNetwork``), as
# the oracle the position engine must match exactly: the same augmenting
# paths, cut, tie flag, unit paths and markings.


def _linked(network):
    """Per node, the nodes joined to it by an arc either way, in node order."""
    linked = {n: set() for n in network.nodes}
    for a, b in network.capacities:
        linked[a].add(b)
        linked[b].add(a)
    return {n: tuple(m for m in network.nodes if m in linked[n])
            for n in network.nodes}


def _residual(network, flow, a, b):
    """Residual capacity from ``a`` to ``b`` under a flow per ordered pair."""
    return cap(network, a, b) - flow.get((a, b), 0) + flow.get((b, a), 0)


def _max_flow_net(network):
    """Edmonds-Karp; returns net flow per ordered pair (flows in opposite
    directions are cancelled)."""
    linked = _linked(network)
    flow = defaultdict(int)
    while True:
        # shortest augmenting path in the residual graph
        parent = {SOURCE: SOURCE}
        queue = deque([SOURCE])
        while queue:
            node = queue.popleft()
            if node == SINK:
                break
            for other in linked[node]:
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


def _reachable(network, net, start, forward):
    """Residual reachability from ``start``; ``forward=False`` follows
    residual arcs backwards (who can still reach ``start``)."""
    linked = _linked(network)
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in linked[node]:
            if other in seen:
                continue
            a, b = (node, other) if forward else (other, node)
            if _residual(network, net, a, b) > 0:
                seen.add(other)
                queue.append(other)
    return seen


def _decompose_unit_paths(network, net, value):
    """Split a net flow into ``value`` unit source-sink paths, cancelling any
    circulation encountered along the way."""
    out = defaultdict(dict)
    for (a, b), f in net.items():
        if f > 0:
            out[a][b] = f

    def next_hop(node):
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
            assert nxt is not None, "flow conservation violated"
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


def reference_max_flow(network):
    net = _max_flow_net(network)
    value = sum(f for (a, _), f in net.items() if a == SOURCE) \
        - sum(f for (_, b), f in net.items() if b == SOURCE)
    minimal = _reachable(network, net, SOURCE, forward=True)
    maximal = set(network.nodes) - _reachable(network, net, SINK, forward=False)
    assert cut_capacity(network, minimal) == value
    return FlowResult(
        value=value, paths=_decompose_unit_paths(network, net, value),
        cut=tuple(n for n in network.nodes if n in minimal),
        cut_max=tuple(n for n in network.nodes if n in maximal))


def reference_marking(marginal, flow):
    """The flow's marking, with the assignment flow on the name-keyed engine."""
    g = marginal.graph
    side = set(flow.cut)
    caps = {}
    for i, e in enumerate(g.edges):
        if (e.u in side) == (e.v in side):
            caps[(SOURCE, i)] = 1
            caps[(i, e.u)] = caps[(i, e.v)] = 1
    drains = {v: marginal.s(v) if v in side else marginal.t(v) for v in g.vertices}
    caps.update({(v, SINK): d for v, d in drains.items() if d > 0})
    assignment = _max_flow_net(NamedNetwork(
        nodes=(SOURCE, *range(len(g.edges)), *g.vertices, SINK), capacities=caps))
    assert sum(f for (_, b), f in assignment.items() if b == SINK) \
        == sum(drains.values())
    fed = set()
    for i, e in enumerate(g.edges):
        if (i, e.u) in assignment:
            fed.add(2 * i)
        elif (i, e.v) in assignment:
            fed.add(2 * i + 1)
    return frozenset(leg.leg_id for leg in g.legs
                     if (leg.leg_id in fed) == (leg.vertex in side))


def reference_bruteforce(marginal):
    """(area, witness, combinations) over frozenset markings, first maximizer."""
    g = marginal.graph
    fat = fatten(g)
    per_vertex = [list(itertools.combinations(g.legs_of(v), marginal.s(v)))
                  for v in g.vertices]
    best, witness, count = -1, None, 0
    for choice in itertools.product(*per_vertex):
        marked = frozenset(itertools.chain.from_iterable(choice))
        count += 1
        cr = sum(1 for a, b in fat.fat_edges if (a in marked) != (b in marked))
        if cr > best:
            best, witness = cr, marked
    return best, sorted(witness), count


def _random_network(rng):
    """Named nodes with independent capacities per direction (one-way arcs,
    zero capacities, arcs into the source and out of the sink)."""
    inner = [f"N{i}" for i in range(int(rng.integers(0, 6)))]
    nodes = (SOURCE, *inner, SINK)
    caps = {}
    for a, b in itertools.permutations(nodes, 2):
        if rng.random() < 0.4:
            caps[(a, b)] = int(rng.integers(0, 4))
    return NamedNetwork(nodes=nodes, capacities=caps)


def _random_assignment_network(rng):
    """The shape of the marking's assignment flow: integer edge nodes fed by
    the source, each feeding its endpoints, vertices draining to the sink."""
    vertices = [f"V{i}" for i in range(int(rng.integers(1, 4)))]
    n_edges = int(rng.integers(1, 6))
    caps = {}
    for i in range(n_edges):
        u, v = rng.choice(vertices, size=2)
        if rng.random() < 0.8:
            caps[(SOURCE, i)] = 1
        caps[(i, str(u))] = caps[(i, str(v))] = 1
    for v in vertices:
        drain = int(rng.integers(0, 4))
        if drain:
            caps[(v, SINK)] = drain
    return NamedNetwork(nodes=(SOURCE, *range(n_edges), *vertices, SINK),
                        capacities=caps)


def test_engine_matches_reference_on_random_networks():
    rng = np.random.default_rng(11)
    one_way = NamedNetwork(nodes=(SOURCE, "A", "B", SINK), capacities={
        (SOURCE, "A"): 1, (SOURCE, "B"): 2, ("A", "B"): 2, ("A", SINK): 2})
    networks = [one_way] + [_random_network(rng) for _ in range(300)] \
        + [_random_assignment_network(rng) for _ in range(300)]
    for named_net in networks:
        expected = reference_max_flow(named_net)
        net = named_net.flow_network()
        assert max_flow(net).to_document() == expected.to_document()
        cut = min_cut(net)
        assert (cut.source_side, cut.capacity, cut.tied) \
            == (expected.cut, expected.value, expected.cut_tied)


def test_engine_matches_reference_on_small_census():
    # every census-family marginal with at most 3 vertices (up to 5 edges)
    for g in enumerate_small_graphs(max_vertices=3, max_edges=5):
        for s in all_counting_functions(g):
            m = Marginal.from_counts(g, s)
            net = build_network(m)
            expected = reference_max_flow(named_network(m))
            flow = max_flow(net)
            assert flow.to_document() == expected.to_document()
            cut = min_cut(net)
            assert (cut.source_side, cut.capacity, cut.tied) \
                == (expected.cut, expected.value, expected.cut_tied)
            assert marking_from_flow(m, flow).marked == reference_marking(m, flow)
            brute = area_bruteforce(m)
            assert (brute.area, brute.witness.to_document(), brute.combinations) \
                == reference_bruteforce(m)


def test_network_arcs_match_the_named_network():
    # every census-family marginal with at most 3 vertices, and again with
    # every edge's endpoints swapped: the arc maps built by position equal
    # those of the network built by name, row by row and in key order
    checked = 0
    for g in enumerate_small_graphs(max_vertices=3, max_edges=5):
        swapped = Graph(g.vertices, tuple(Edge(e.v, e.u, e.d) for e in g.edges))
        for graph in (g, swapped):
            for s in all_counting_functions(graph):
                m = Marginal.from_counts(graph, s)
                network = build_network(m)
                expected = named_network(m).flow_network()
                assert network.nodes == expected.nodes
                assert len(network.arcs) == len(expected.arcs)
                for row, want in zip(network.arcs, expected.arcs):
                    assert list(row.items()) == list(want.items())
                checked += 1
    assert checked == 8642


def _generic_marginal():
    """The 2x3 lattice: the predictor reads its min cut (generic case)."""
    return parse_marginal(json.dumps(lattice_doc(2, 3)))


def test_one_solve_per_marginal(solves):
    m = _generic_marginal()
    assert predict_entropy(m, 4).case == "generic"
    network = build_network(m)
    flow = max_flow(network)
    assert min_cut(network) == MinCut(flow.cut, flow.value, flow.cut_tied)
    marking_from_flow(m, flow)
    assert build_network(m) is network and max_flow(network) is flow
    assert sum(n is network.arcs for n in solves) == 1
    # the marking's assignment flow runs on arc maps of its own
    assert len(solves) == 2


def test_kept_solves_match_direct_solves():
    # every census-family marginal with at most 3 vertices: what the
    # marginal's network keeps equals a solve on a network built directly,
    # whichever caller solves first
    for g in enumerate_small_graphs(max_vertices=3, max_edges=5):
        for s in all_counting_functions(g):
            m = Marginal.from_counts(g, s)
            prediction = predict_entropy(m, 4)
            network = build_network(m)
            direct = named_network(m).flow_network()
            expected = max_flow(direct)
            assert max_flow(network) == expected
            assert min_cut(network) == min_cut(direct)
            assert predict_entropy(m, 4) == prediction
            if prediction.case == "generic":
                assert prediction.leading_area == expected.value


def test_a_marginal_frees_its_network_without_the_collector():
    # reference counting alone frees the network and its flow, so nothing
    # the cache keeps forms a cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        m = _generic_marginal()
        flow = max_flow(build_network(m))
        marking_from_flow(m, flow)
        predict_entropy(m, 4)
        network = weakref.ref(build_network(m))
        flow = weakref.ref(flow)
        del m
        assert network() is None and flow() is None
    finally:
        if enabled:
            gc.enable()


def enumerate_min_cuts(network: NamedNetwork) -> list[tuple[str, ...]]:
    """Oracle: all minimum cuts by exhaustion over vertex subsets."""
    vertices = network.nodes[1:-1]
    best = None
    cuts: list[tuple[str, ...]] = []
    for mask in range(2 ** len(vertices)):
        side = {SOURCE} | {v for i, v in enumerate(vertices) if mask >> i & 1}
        c = cut_capacity(network, side)
        if best is None or c < best:
            best = c
            cuts = []
        if c == best:
            cuts.append(tuple(n for n in network.nodes if n in side))
    return cuts


def test_single_loop_network():
    net = named(build_network(single_loop(s=1)))
    assert net.nodes == (SOURCE, "V", SINK)
    assert cap(net, SOURCE, "V") == 1
    assert cap(net, "V", SINK) == 1
    assert cap(net, SOURCE, SINK) == 0


def test_black_hole_adapted_network():
    net = named(build_network(black_hole(traced=[0, 3])))  # trace V1 and V3
    assert cap(net, SOURCE, "V1") == 1
    assert cap(net, SOURCE, "V3") == 1
    assert cap(net, "V1", "V2") == 1
    assert cap(net, "V2", "V3") == 1
    assert cap(net, "V2", SINK) == 2
    assert cap(net, SOURCE, "V2") == 0


def test_adapted_network_has_one_sided_vertices():
    m = black_hole(traced=[0, 3])
    net = named(build_network(m))
    for v in m.graph.vertices:
        deg = m.graph.degree(v)
        assert (cap(net, SOURCE, v), cap(net, v, SINK)) in ((deg, 0), (0, deg))


def test_one_way_arc():
    # A -> B has no reverse arc, so nothing reaches the sink through B -> A
    net = NamedNetwork(nodes=(SOURCE, "A", "B", SINK), capacities={
        (SOURCE, "A"): 1, (SOURCE, "B"): 2, ("A", "B"): 2, ("A", SINK): 2})
    assert cap(net, "A", "B") == 2 and cap(net, "B", "A") == 0
    flow = max_flow(net.flow_network())
    assert flow.value == 1
    assert flow.paths == ((SOURCE, "A", SINK),)
    assert flow.cut == (SOURCE, "B") and not flow.cut_tied
    # only the arcs leaving the source side count: A -> B enters {source, B}
    assert cut_capacity(net, (SOURCE, "B")) == 1
    assert cut_capacity(net, (SOURCE, "A")) == 2 + 2 + 2


def test_flow_memory_is_linear_in_the_arcs():
    # a 500-vertex path, every vertex keeping one leg but the first: the
    # flow and the marking's assignment flow together stay within a few MiB
    # (a dense capacity matrix per network would need about 18 MiB here)
    vertices = tuple(f"V{i}" for i in range(500))
    g = Graph(vertices=vertices, edges=tuple(
        Edge(u, v) for u, v in zip(vertices, vertices[1:])))
    m = Marginal.from_counts(g, {v: int(i > 0) for i, v in enumerate(vertices)})
    tracemalloc.start()
    try:
        marking_from_flow(m, max_flow(build_network(m)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_single_loop_flow():
    flow = max_flow(build_network(single_loop(s=1)))
    assert flow.value == 1
    assert flow.paths == ((SOURCE, "V", SINK),)


def test_black_hole_flows():
    for traced in ([0, 1], [0, 2], [0, 3]):
        flow = max_flow(build_network(black_hole(traced=traced)))
        assert flow.value == 2


def test_oxygen_flows():
    for traced in ([0, 1], [0, 3]):
        flow = max_flow(build_network(oxygen(traced=traced)))
        assert flow.value == 2


def test_single_loop_min_cut_tie():
    net = build_network(single_loop(s=1))
    cut = min_cut(net)
    assert cut.capacity == 1
    assert cut.tied
    cuts = enumerate_min_cuts(named(net))
    assert sorted(cuts) == sorted([(SOURCE,), (SOURCE, "V")])


def test_two_loops_tie():
    net = build_network(two_loops(s=2))
    flow = max_flow(net)
    assert flow.value == 2
    assert min_cut(net).tied


def test_adapted_unique_cut():
    # 4-cycle, two adjacent vertices traced: boundary 2 < total s = total t = 4
    m = marginal_from(
        ["A", "B", "C", "D"],
        [("A", "B", 1), ("B", "C", 1), ("C", "D", 1), ("D", "A", 1)],
        {"mode": "counts", "s": {"A": 0, "B": 0, "C": 2, "D": 2}},
    )
    net = build_network(m)
    cut = min_cut(net)
    assert cut.capacity == 2
    assert not cut.tied
    assert len(enumerate_min_cuts(named(net))) == 1


def test_tie_marks_the_one_vertex_equal_case():
    # the tied min cut is exactly the balanced case with its -1/2 correction
    assert min_cut(build_network(two_loops(s=2))).tied        # |S| = traced
    assert not min_cut(build_network(two_loops(s=1))).tied    # |S| < traced
    assert not min_cut(build_network(two_loops(s=3))).tied    # |S| > traced


def test_tie_flag_matches_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = random_marginal(rng)
        net = build_network(m)
        assert min_cut(net).tied == (len(enumerate_min_cuts(named(net))) > 1)


def test_flow_upper_bound():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = random_marginal(rng)
        flow = max_flow(build_network(m))
        total_s = sum(m.s(v) for v in m.graph.vertices)
        total_t = sum(m.t(v) for v in m.graph.vertices)
        assert flow.value <= min(total_s, total_t)


def test_path_decomposition_replays():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = random_marginal(rng)
        net = build_network(m)
        flow = max_flow(net)
        assert len(flow.paths) == flow.value
        assert replay_paths(named(net), flow.paths) == flow.value
        for path in flow.paths:
            assert path[0] == SOURCE and path[-1] == SINK
            assert all(n in m.graph.vertices for n in path[1:-1])


def test_unit_paths_cancel_a_circulation():
    # positions: source 0, a 1, b 2, c 3, sink 4; the net flow carries one
    # unit source -> a -> sink beside the cycle a -> b -> c -> a, which the
    # walk from a meets first (b precedes the sink in a's node order)
    capacity = [{} for _ in range(5)]
    residual = [{} for _ in range(5)]
    for a, b in [(0, 1), (1, 4), (1, 2), (2, 3), (3, 1)]:
        capacity[a][b], residual[a][b] = 1, 0
        capacity[b].setdefault(a, 0)
        residual[b][a] = residual[b].get(a, 0) + 1
    capacity = [dict(sorted(row.items())) for row in capacity]
    residual = [dict(sorted(row.items())) for row in residual]
    assert _unit_paths(capacity, residual, 1) == [[0, 1, 4]]
    # all consumed, each unit exactly once: every forward arc's residual went
    # 0 -> 1 and every reverse arc keeps the 1 it was given above
    assert residual == [
        {1: 1},
        {0: 1, 2: 1, 3: 1, 4: 1},
        {1: 1, 3: 1},
        {1: 1, 2: 1},
        {1: 1},
    ]


def test_cut_certifies_value():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = random_marginal(rng)
        net = build_network(m)
        flow = max_flow(net)
        assert cut_capacity(named(net), flow.cut) == flow.value


def test_relabel_invariance():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = random_marginal(rng)
        g = m.graph
        perm = list(rng.permutation(len(g.vertices)))
        renamed = {v: f"W{perm[i]}" for i, v in enumerate(g.vertices)}
        g2 = Graph(
            vertices=tuple(renamed[v] for v in g.vertices),
            edges=tuple(
                type(e)(u=renamed[e.u], v=renamed[e.v], d=e.d) for e in g.edges
            ),
        )
        m2 = Marginal.from_counts(g2, {renamed[v]: m.s(v) for v in g.vertices})
        assert max_flow(build_network(m2)).value == max_flow(build_network(m)).value
