import numpy as np

from arealaw import (
    FlowNetwork,
    Graph,
    TraceSpec,
    build_network,
    max_flow,
    min_cut,
    resolve_trace,
)
from arealaw.boundary_flow import SINK, SOURCE, cut_capacity, replay_paths

from conftest import (
    black_hole,
    marginal_from,
    oxygen,
    random_marginal,
    single_loop,
    two_loops,
)


def enumerate_min_cuts(network: FlowNetwork) -> list[tuple[str, ...]]:
    """Oracle: all minimum cuts by exhaustion over vertex subsets."""
    vertices = network.graph_vertices
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
    net = build_network(single_loop(s=1))
    assert net.nodes == (SOURCE, "V", SINK)
    assert net.cap(SOURCE, "V") == 1
    assert net.cap("V", SINK) == 1
    assert net.cap(SOURCE, SINK) == 0


def test_black_hole_adapted_network():
    net = build_network(black_hole(traced=[0, 3]))  # trace V1 and V3
    assert net.cap(SOURCE, "V1") == 1
    assert net.cap(SOURCE, "V3") == 1
    assert net.cap("V1", "V2") == 1
    assert net.cap("V2", "V3") == 1
    assert net.cap("V2", SINK) == 2
    assert net.cap(SOURCE, "V2") == 0


def test_adapted_network_has_one_sided_vertices():
    m = black_hole(traced=[0, 3])
    net = build_network(m)
    for v in m.graph.vertices:
        deg = m.graph.degree(v)
        assert (net.cap(SOURCE, v), net.cap(v, SINK)) in ((deg, 0), (0, deg))


def test_one_way_arc():
    # A -> B has no reverse arc, so nothing reaches the sink through B -> A
    net = FlowNetwork(nodes=(SOURCE, "A", "B", SINK), capacities={
        (SOURCE, "A"): 1, (SOURCE, "B"): 2, ("A", "B"): 2, ("A", SINK): 2})
    assert net.cap("A", "B") == 2 and net.cap("B", "A") == 0
    flow = max_flow(net)
    assert flow.value == 1
    assert flow.paths == ((SOURCE, "A", SINK),)
    assert flow.cut == (SOURCE, "B") and not flow.cut_tied
    # only the arcs leaving the source side count: A -> B enters {source, B}
    assert cut_capacity(net, (SOURCE, "B")) == 1
    assert cut_capacity(net, (SOURCE, "A")) == 2 + 2 + 2


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
    cuts = enumerate_min_cuts(net)
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
    assert len(enumerate_min_cuts(net)) == 1


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
        assert min_cut(net).tied == (len(enumerate_min_cuts(net)) > 1)


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
        assert replay_paths(net, flow.paths) == flow.value
        for path in flow.paths:
            assert path[0] == SOURCE and path[-1] == SINK
            assert all(n in m.graph.vertices for n in path[1:-1])


def test_cut_certifies_value():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = random_marginal(rng)
        net = build_network(m)
        flow = max_flow(net)
        assert cut_capacity(net, flow.cut) == flow.value


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
        m2 = resolve_trace(g2, TraceSpec.from_counts(
            {renamed[v]: m.s(v) for v in g.vertices}
        ))
        assert max_flow(build_network(m2)).value == max_flow(build_network(m)).value
